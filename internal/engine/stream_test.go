package engine

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/ues"
)

// TestEnginesNeverShareStreams pins stream ownership: every engine owns the
// direction stream of its own seed — engines compiled from one shared
// reduction included — so evicting an engine frees its stream and no
// engine ever reads another seed's directions.
func TestEnginesNeverShareStreams(t *testing.T) {
	g := gen.Grid(6, 6)
	a := mustCompile(t, g, Config{Seed: 1})
	b, err := CompileWithReduced(g, a.Reduced(), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileWithReduced(g, a.Reduced(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.dirs == b.dirs || a.dirs == c.dirs || b.dirs == c.dirs {
		t.Fatal("two engines share one direction stream")
	}
	for _, e := range []*Engine{a, b, c} {
		if e.dirs.Seed() != e.cfg.Seed {
			t.Fatalf("engine of seed %d owns a stream of seed %d", e.cfg.Seed, e.dirs.Seed())
		}
		ref, err := route.New(g, route.Config{Seed: e.cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []graph.NodeID{35, 17, 999} {
			got, err := e.Route(0, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Route(0, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || got.Hops != want.Hops || len(got.Rounds) != len(want.Rounds) {
				t.Fatalf("seed %d 0->%d: engine %+v, fresh router %+v", e.cfg.Seed, dst, got, want)
			}
		}
		for i := int64(0); i < 1<<14; i++ {
			if got, want := e.dirs.At(i), int32(ues.Symbol(e.cfg.Seed, uint64(i), 3)); got != want {
				t.Fatalf("seed %d stream symbol %d = %d, want %d", e.cfg.Seed, i, got, want)
			}
		}
	}
}

// TestWarmGridRouteAllocs is the allocation gate on the walk layer: a warm
// 32×32 engine route whose doubling loop fails four rounds before it
// succeeds. The failed rounds' closure checks are answered by the component
// index instead of a walk over a fresh n′-entry visited set, so the route
// allocates only its Result and the four growths of its five-entry round
// list (it allocated 9 times while every failed round walked).
func TestWarmGridRouteAllocs(t *testing.T) {
	e := mustCompile(t, gen.Grid(32, 32), Config{Seed: 3})
	res, err := e.Route(0, 1023)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess || len(res.Rounds) != 5 {
		t.Fatalf("route 0->1023: %v after %d rounds; the gate is pinned for five", res.Status, len(res.Rounds))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Route(0, 1023); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 5 {
		t.Fatalf("warm route allocates %.0f times, want 5", allocs)
	}
}
