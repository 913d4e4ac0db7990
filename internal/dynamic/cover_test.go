package dynamic

import (
	"testing"

	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ues"
)

// TestCoverSkipMatchesFullCheck is the differential behind
// definitiveFailure's O(1) answer. On worlds churned into several
// components, at every epoch, for eight sources, for reachable,
// cross-component and absent targets, and for the doubling bounds 4..32,
// the answer must equal the full check written out below — CoverWalk over
// a stream of its own, Closed, and the scan for a gadget of t — both where
// the component index answers and where definitiveFailure walks. The check
// depends only on the snapshot current at decision time, never on how the
// failed round walked, so agreeing here covers every failed round a route
// can reach. Bounds stop at 32: past it the walks only grow, and the small
// components churn leaves are covered (a definitive failure) well before.
func TestCoverSkipMatchesFullCheck(t *testing.T) {
	skipped, walked, definitive := 0, 0, 0
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		sched Schedule
	}{
		{"torus-markov", gen.Torus(4, 5), &MarkovLinks{Seed: 5, PDown: 0.35, PUp: 0.3}},
		{"grid-churn", gen.Grid(5, 5), &EdgeChurn{Seed: 9, PDrop: 0.2, AddRate: 1}},
	} {
		w := NewWorld(tc.g, tc.sched)
		r := NewRouter(w, Config{Seed: 21, LengthFactor: 1}, nil)
		nodes := tc.g.SortedNodes()
		targets := append(append([]graph.NodeID{}, nodes...), 99999)
		for epoch := 0; epoch < 12; epoch++ {
			red, flat, err := w.Compiled()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range nodes[:8] {
				entry, _ := red.Entry(s)
				dense, _ := flat.Index(entry)
				for _, dst := range targets {
					if dst == s {
						continue
					}
					for bound := 4; bound <= 32; bound *= 2 {
						got, err := r.definitiveFailure(s, dst, bound)
						if err != nil {
							t.Fatal(err)
						}
						want := coversWithoutGadget(t, flat, dense, dst, 21, bound)
						if got != want {
							t.Fatalf("%s epoch %d %d->%d bound %d: definitiveFailure %v, full check %v",
								tc.name, epoch, s, dst, bound, got, want)
						}
						if want {
							definitive++
						}
						te, ok := red.Entry(dst)
						ti, ok2 := flat.Index(te)
						if ok && ok2 && flat.Components().Same(dense, ti) {
							skipped++
						} else {
							walked++
						}
					}
				}
			}
			if err := w.Advance(Probe{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if skipped == 0 || walked == 0 || definitive == 0 {
		t.Fatalf("differential exercised %d skipped and %d walked checks, %d definitive; want all three",
			skipped, walked, definitive)
	}
}

// coversWithoutGadget is definitiveFailure's answer computed the long way:
// walk T_bound from dense node start, then report whether the visited set
// is closed and holds no gadget of dst.
func coversWithoutGadget(t *testing.T, flat *flatgraph.Graph, start int32, dst graph.NodeID, seed uint64, bound int) bool {
	t.Helper()
	visited := make([]bool, flat.NumNodes())
	seq := flatgraph.NewStream(seed).Seq(ues.Length(bound, 1))
	if _, err := flat.CoverWalk(start, seq, visited, nil); err != nil {
		t.Fatal(err)
	}
	if !flat.Closed(visited) {
		return false
	}
	for i, vis := range visited {
		if vis && flat.OriginalOf(int32(i)) == dst {
			return false
		}
	}
	return true
}
