package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
)

// diffCase is one graph/pair scenario for the no-op differential.
type diffCase struct {
	name string
	g    *graph.Graph
	s, t graph.NodeID
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	grid := gen.Grid(5, 5)
	udg := gen.UDG2D(40, 0.25, 3).G
	multi, err := gen.RandomRegularMulti(14, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	barbell := gen.Barbell(5, 4)
	twoComp, err := gen.DisjointUnion(gen.Cycle(6), gen.Path(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	cases := []diffCase{
		{"grid", grid, 0, 24},
		{"grid-self", grid, 7, 7},
		{"udg2d", udg, 0, 17},
		{"multigraph", multi, 0, 13},
		{"barbell", barbell, 0, 9},
		{"unreachable", twoComp, 0, 102},
		{"nonexistent-target", grid, 3, 9999},
	}
	return cases
}

// TestNoOpScheduleMatchesStaticRoute is the differential satellite: over a
// schedule that never changes the graph, the dynamic router must reproduce
// the static router exactly — verdict, hop count, and header bits — on
// both execution paths. The epoch clock still ticks (HopsPerEpoch is set
// low enough that many no-op advances fire mid-walk), so the test pins
// that epoch bookkeeping alone perturbs nothing.
func TestNoOpScheduleMatchesStaticRoute(t *testing.T) {
	for _, disableFlat := range []bool{false, true} {
		for _, tc := range diffCases(t) {
			name := fmt.Sprintf("%s/flat=%v", tc.name, !disableFlat)
			t.Run(name, func(t *testing.T) {
				const seed = 7
				static, err := route.New(tc.g, route.Config{Seed: seed, DisableFlat: disableFlat})
				if err != nil {
					t.Fatal(err)
				}
				want, err := static.Route(tc.s, tc.t)
				if err != nil {
					t.Fatal(err)
				}

				w := NewWorld(tc.g, Static{})
				dyn := NewRouter(w, Config{Seed: seed, HopsPerEpoch: 16, DisableFlat: disableFlat}, nil)
				got, err := dyn.Route(tc.s, tc.t)
				if err != nil {
					t.Fatal(err)
				}

				if got.Status != want.Status {
					t.Errorf("status: dynamic %v, static %v", got.Status, want.Status)
				}
				if got.Hops != want.Hops {
					t.Errorf("hops: dynamic %d, static %d", got.Hops, want.Hops)
				}
				if got.MaxHeaderBits != want.MaxHeaderBits {
					t.Errorf("header bits: dynamic %d, static %d", got.MaxHeaderBits, want.MaxHeaderBits)
				}
				if got.Rounds != len(want.Rounds) {
					t.Errorf("rounds: dynamic %d, static %d", got.Rounds, len(want.Rounds))
				}
				if got.Resumptions != 0 || got.Recompiles != 0 {
					t.Errorf("no-op schedule triggered %d resumptions, %d recompiles",
						got.Resumptions, got.Recompiles)
				}
				if tc.s != tc.t && got.Epochs == 0 && want.Hops >= 16 {
					t.Error("epoch clock never ticked despite a multi-epoch walk")
				}
			})
		}
	}
}

// TestNoOpKnownBoundMatchesStatic pins the fixed-bound mode against the
// static router's KnownN round.
func TestNoOpKnownBoundMatchesStatic(t *testing.T) {
	g := gen.Grid(4, 4)
	static, err := route.New(g, route.Config{Seed: 5, KnownN: 256})
	if err != nil {
		t.Fatal(err)
	}
	want, err := static.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewRouter(NewWorld(g, Static{}), Config{Seed: 5, KnownN: 256, HopsPerEpoch: 32}, nil)
	got, err := dyn.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != netsim.StatusSuccess || got.Status != want.Status {
		t.Fatalf("status: dynamic %v, static %v", got.Status, want.Status)
	}
	if got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
		t.Fatalf("dynamic (hops %d, header %d) != static (hops %d, header %d)",
			got.Hops, got.MaxHeaderBits, want.Hops, want.MaxHeaderBits)
	}
}

// TestBothPathsAgreeUnderChurn cross-checks the flat and reference
// execution paths against each other on an actually-changing topology:
// identical seeds and schedules must produce identical verdicts, hops, and
// epoch counts, because the walk rule and the resumption convention are
// the same on both paths.
func TestBothPathsAgreeUnderChurn(t *testing.T) {
	base := gen.Torus(4, 5)
	run := func(disableFlat bool) *Result {
		t.Helper()
		sched := &MarkovLinks{Seed: 99, PDown: 0.08, PUp: 0.5}
		w := NewWorld(base, sched)
		res, err := NewRouter(w, Config{Seed: 13, HopsPerEpoch: 24, DisableFlat: disableFlat}, nil).Route(0, 19)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat, ref := run(false), run(true)
	if flat.Status != ref.Status || flat.Hops != ref.Hops ||
		flat.Epochs != ref.Epochs || flat.Resumptions != ref.Resumptions ||
		flat.Rounds != ref.Rounds {
		t.Fatalf("paths diverged under churn:\nflat %+v\nref  %+v", flat, ref)
	}
}
