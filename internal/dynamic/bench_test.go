package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/degred"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/route"
)

// BenchmarkDynamicRoute measures one s→t query over a churning world,
// including the world setup (clone + seeded compile cache), the epoch
// advances, and every churn-forced recompile + header migration — the
// full serving cost of a dynamic query from a prepared engine's
// artifacts.
func BenchmarkDynamicRoute(b *testing.B) {
	g := gen.Torus(5, 5)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	red.Flat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWorldFromCompiled(g, red, &MarkovLinks{Seed: uint64(i), PDown: 0.08, PUp: 0.5})
		if _, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: 32}, nil).Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicRouteStatic is the overhead baseline: the same query
// over a never-changing world, isolating what the hop-interleaved epoch
// clock and world plumbing cost relative to route.Router on the identical
// walk (compare BenchmarkPreparedRoute).
func BenchmarkDynamicRouteStatic(b *testing.B) {
	g := gen.Torus(5, 5)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	red.Flat()
	w := NewWorldFromCompiled(g, red, Static{})
	r := NewRouter(w, Config{Seed: 3, HopsPerEpoch: 32}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochRecompile measures the per-epoch cost a topology change
// actually incurs: one mutation plus the compile-cache miss (degree
// reduction + flat CSR snapshot) on a 64-node torus.
func BenchmarkEpochRecompile(b *testing.B) {
	w := NewWorld(gen.Torus(8, 8), nil)
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := w.RemoveEdgeBetween(0, 1); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := w.AddEdge(0, 1); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := w.Compiled(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochCacheHit is the warm-path counterpart: an epoch that
// leaves the topology untouched must cost essentially nothing.
func BenchmarkEpochCacheHit(b *testing.B) {
	w := NewWorld(gen.Torus(8, 8), nil)
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Compiled(); err != nil {
			b.Fatal(err)
		}
	}
}

// sharedBenchEpochs is the churn history both world-reuse benchmarks
// replay before querying, so the pair isolates exactly the per-request
// world cost the serving layer avoids by sharing.
const sharedBenchEpochs = 10

// BenchmarkPrivateWorldRoute is the one-world-per-request serving shape
// (PR 3's /v1/dynamic): every query pays a fresh clone, the full churn
// history replay, and the recompiles that history forces, before a
// frozen-clock route.
func BenchmarkPrivateWorldRoute(b *testing.B) {
	g := gen.Torus(5, 5)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	red.Flat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWorldFromCompiled(g, red, &EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
		for e := 0; e < sharedBenchEpochs; e++ {
			if err := w.Advance(Probe{}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: -1}, nil).Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedWorldRoute is the named-world serving shape
// (/v1/worlds/{id}/route): the world evolved once, its compile cache is
// warm, and each query is just a route over the shared snapshot — the
// per-request world construction is gone.
func BenchmarkSharedWorldRoute(b *testing.B) {
	g := gen.Torus(5, 5)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	red.Flat()
	w := NewWorldFromCompiled(g, red, &EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for e := 0; e < sharedBenchEpochs; e++ {
		if err := w.Advance(Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: -1}, nil).Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedWorldRouteParallel is the same shared world under
// concurrent clients, measuring what the world lock costs when every
// query reads one warm snapshot.
func BenchmarkSharedWorldRouteParallel(b *testing.B) {
	g := gen.Torus(5, 5)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	red.Flat()
	w := NewWorldFromCompiled(g, red, &EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for e := 0; e < sharedBenchEpochs; e++ {
		if err := w.Advance(Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: -1}, nil).Route(0, 18); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStaticReference anchors the comparison: the static prepared
// router on the same graph and query.
func BenchmarkStaticReference(b *testing.B) {
	g := gen.Torus(5, 5)
	r, err := route.New(g, route.Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaRecompile pins the tentpole claim: with a fixed-size diff
// (one link down, one link up between epochs), a delta recompile costs
// O(diff) while the full rebuild costs O(graph) — so as the world grows
// 10× and 100×, the delta path's per-epoch cost should stay roughly flat
// while the full path's grows with the graph. CI guards the ratio at the
// largest size.
func BenchmarkDeltaRecompile(b *testing.B) {
	for _, side := range []int{10, 32, 100} {
		for _, path := range []string{"delta", "full"} {
			b.Run(fmt.Sprintf("n=%d/%s", side*side, path), func(b *testing.B) {
				w := NewWorld(gen.Torus(side, side), nil)
				w.SetDeltaCompilation(path == "delta")
				if _, _, err := w.Compiled(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.RemoveEdgeBetween(0, 1); err != nil {
						b.Fatal(err)
					}
					if _, _, err := w.AddEdge(0, 1); err != nil {
						b.Fatal(err)
					}
					if _, _, err := w.Compiled(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRemoveEdgeBetweenHighDegree measures the schedule-facing edge
// removal on a hub node, where the old implementation paid one locked
// Neighbor call (map lookup + bounds checks) per port scanned; the
// journal-era PortTo helper does one adjacency lookup and scans the slice.
func BenchmarkRemoveEdgeBetweenHighDegree(b *testing.B) {
	for _, deg := range []int{64, 1024} {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			g := graph.New()
			g.EnsureNode(0)
			for i := 1; i <= deg; i++ {
				g.EnsureNode(graph.NodeID(i))
				if _, _, err := g.AddEdge(0, graph.NodeID(i)); err != nil {
					b.Fatal(err)
				}
			}
			w := NewWorld(g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Hit spokes near the end of the hub's port row — the
				// expensive half of the scan.
				target := graph.NodeID(deg - i%8)
				if err := w.RemoveEdgeBetween(0, target); err != nil {
					b.Fatal(err)
				}
				if _, _, err := w.AddEdge(0, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
