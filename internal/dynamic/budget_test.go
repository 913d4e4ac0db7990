package dynamic

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
)

// twoComponents builds the grid ⊔ cycle world base (nodes 100+ are the
// cycle).
func twoComponents(t *testing.T) *graph.Graph {
	t.Helper()
	u, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// bfsComponentsOf labels the connected components of g by breadth-first
// search — the oracle the compile-time component index is audited against.
func bfsComponentsOf(g *graph.Graph) map[graph.NodeID]int {
	label := make(map[graph.NodeID]int, g.NumNodes())
	next := 0
	for _, v := range g.Nodes() {
		if _, ok := label[v]; ok {
			continue
		}
		queue := []graph.NodeID{v}
		label[v] = next
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := 0; p < g.Degree(u); p++ {
				h, err := g.Neighbor(u, p)
				if err != nil {
					continue
				}
				if _, ok := label[h.To]; !ok {
					label[h.To] = next
					queue = append(queue, h.To)
				}
			}
		}
		next++
	}
	return label
}

// TestChurnComponentsMatchBFSOracle is the tentpole audit under live churn:
// at every epoch the snapshot's memoized component index must be a
// relabeling of the BFS oracle on the reduced graph, and certificate
// verdicts must equal walked verdicts on the instantaneous topology. The
// assertion is hard — one wrong component or one divergent verdict at any
// epoch fails the test.
func TestChurnComponentsMatchBFSOracle(t *testing.T) {
	base := twoComponents(t)
	// MarkovLinks flaps links of the fixed underlay, so the two components
	// can fragment further but never merge: the cross-component pair stays
	// provably unreachable for the whole run.
	w := NewWorld(base, &MarkovLinks{Seed: 5, PDown: 0.15, PUp: 0.5})
	// Frozen clocks: the routers must not advance the world mid-audit, so
	// the certified and walked routers decide on the same topology.
	cert := NewRouter(w, Config{Seed: 7, HopsPerEpoch: -1}, nil)
	walk := NewRouter(w, Config{Seed: 7, HopsPerEpoch: -1, DisableCertificates: true}, nil)
	pairs := []struct{ s, d graph.NodeID }{
		{0, 15}, {0, 102}, {100, 103}, {0, 424242},
	}
	for epoch := 0; epoch < 12; epoch++ {
		red, flat, err := w.Compiled()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		comps := flat.Components()
		oracle := bfsComponentsOf(red.Graph())
		oracleCount := 0
		for _, l := range oracle {
			if l+1 > oracleCount {
				oracleCount = l + 1
			}
		}
		if comps.Count() != oracleCount {
			t.Fatalf("epoch %d: index has %d components, oracle %d", epoch, comps.Count(), oracleCount)
		}
		fwd := map[int32]int{}
		back := map[int]int32{}
		for _, v := range red.Graph().Nodes() {
			dense, ok := flat.Index(v)
			if !ok {
				t.Fatalf("epoch %d: gadget %d missing from snapshot", epoch, v)
			}
			c := comps.Of(dense)
			o := oracle[v]
			if pc, seen := fwd[c]; seen && pc != o {
				t.Fatalf("epoch %d: component %d maps to oracle labels %d and %d", epoch, c, pc, o)
			}
			if pv, seen := back[o]; seen && pv != c {
				t.Fatalf("epoch %d: oracle label %d maps to components %d and %d", epoch, o, pv, c)
			}
			fwd[c], back[o] = o, c
		}

		snap := w.Snapshot()
		for _, p := range pairs {
			got, errCert := cert.Route(p.s, p.d)
			want, errWalk := walk.Route(p.s, p.d)
			if (errCert == nil) != (errWalk == nil) {
				t.Fatalf("epoch %d route %d->%d: certified err %v, walked err %v",
					epoch, p.s, p.d, errCert, errWalk)
			}
			if errCert != nil {
				continue // e.g. churn isolated the source; both agreed
			}
			if got.Status != want.Status {
				t.Fatalf("epoch %d route %d->%d: certified status %v, walked %v",
					epoch, p.s, p.d, got.Status, want.Status)
			}
			if c := got.Certificate; c != nil {
				if got.Status != netsim.StatusFailure || got.Hops != 0 {
					t.Fatalf("epoch %d route %d->%d: certificate with status %v, hops %d",
						epoch, p.s, p.d, got.Status, got.Hops)
				}
				if c.Epoch != snap.Epoch || c.Version != snap.Version {
					t.Fatalf("epoch %d route %d->%d: certificate stamped (%d,%d), world at (%d,%d)",
						epoch, p.s, p.d, c.Epoch, c.Version, snap.Epoch, snap.Version)
				}
			} else if want.Status == netsim.StatusFailure && comps.Count() > 1 {
				// Multi-component snapshot and a failure verdict: the cert
				// layer must have answered, not silently decayed to a walk —
				// unless the target exists in the same component (covered
				// walk failure is impossible for reachable targets).
				if se, ok := red.Entry(p.s); ok {
					if te, ok2 := red.Entry(p.d); !ok2 || oracle[se] != oracle[te] {
						t.Fatalf("epoch %d route %d->%d: failure verdict walked %d hops despite component proof",
							epoch, p.s, p.d, got.Hops)
					}
				}
			}
		}
		if err := w.Advance(Probe{}); err != nil {
			t.Fatalf("epoch %d advance: %v", epoch, err)
		}
	}
}

// dynRunToVerdict drives RouteQuery under a fixed per-request budget,
// resuming until a verdict lands, and fails if any continuation spends
// more hops than its budget.
func dynRunToVerdict(t *testing.T, r *Router, s, d graph.NodeID, budget int64) (*Result, int) {
	t.Helper()
	var cur *route.Cursor
	var spent int64
	for i := 0; ; i++ {
		if i > 200000 {
			t.Fatal("walk did not converge")
		}
		res, err := r.RouteQuery(route.Query{Ctx: context.Background(), Src: s, Dst: d, Budget: budget, Cursor: cur})
		if err != nil {
			t.Fatalf("budgeted route %d->%d (continuation %d): %v", s, d, i, err)
		}
		if res.Hops-spent > budget {
			t.Fatalf("budgeted route %d->%d (continuation %d) spent %d hops on a budget of %d",
				s, d, i, res.Hops-spent, budget)
		}
		spent = res.Hops
		if res.Exhausted == "" {
			return res, i
		}
		if res.Exhausted != route.ExhaustBudget {
			t.Fatalf("exhausted = %q, want budget", res.Exhausted)
		}
		if res.Cursor == nil {
			t.Fatal("exhausted result without cursor")
		}
		cur = res.Cursor
	}
}

// TestDynamicBudgetedSplitEqualsUninterrupted is the dynamic resume
// differential: on identically-seeded churning worlds, a walk split across
// budget continuations must equal the uninterrupted walk — verdict, hops,
// header bits, bound, rounds, epochs, and mid-walk resumptions — including
// walks whose cursors cross epoch recompiles. A budget that covers the
// whole walk finishes it in one call, even when it runs out on the hop
// that lands on the source.
func TestDynamicBudgetedSplitEqualsUninterrupted(t *testing.T) {
	base := gen.Torus(5, 5)
	cfg := Config{Seed: 3, HopsPerEpoch: 16, DisableCertificates: true}
	mkRouter := func() *Router {
		return NewRouter(NewWorld(base, &EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1}), cfg, nil)
	}
	want, err := mkRouter().Route(0, 18)
	if err != nil {
		t.Fatal(err)
	}
	if want.Recompiles == 0 || want.Epochs == 0 {
		t.Fatalf("baseline did not churn (epochs %d, recompiles %d) — test is vacuous",
			want.Epochs, want.Recompiles)
	}
	for _, budget := range []int64{1, 17, 256, want.Hops, 1 << 40} {
		got, continuations := dynRunToVerdict(t, mkRouter(), 0, 18, budget)
		if got.Status != want.Status || got.Hops != want.Hops ||
			got.MaxHeaderBits != want.MaxHeaderBits || got.Bound != want.Bound ||
			got.Rounds != want.Rounds || got.AbortedRounds != want.AbortedRounds ||
			got.Epochs != want.Epochs || got.Resumptions != want.Resumptions {
			t.Fatalf("budget %d: split %+v != uninterrupted %+v", budget, got, want)
		}
		if budget == 1 && continuations < 2 {
			t.Fatalf("budget 1 finished in %d continuations over %d hops", continuations, want.Hops)
		}
		if budget >= want.Hops && continuations != 0 {
			t.Fatalf("budget %d covers the %d-hop walk but took %d continuations",
				budget, want.Hops, continuations)
		}
	}
}

// TestDynamicBudgetedDeadline: an expired context exhausts at the round
// boundary with a resumable cursor, and the resumed walk reaches the
// uninterrupted verdict.
func TestDynamicBudgetedDeadline(t *testing.T) {
	base := gen.Torus(4, 5)
	want, err := NewRouter(NewWorld(base, nil), Config{Seed: 9, HopsPerEpoch: 16}, nil).Route(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(NewWorld(base, nil), Config{Seed: 9, HopsPerEpoch: 16}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != route.ExhaustDeadline || res.Cursor == nil {
		t.Fatalf("expired-context result = %+v", res)
	}
	got, err := r.RouteQuery(route.Query{Ctx: context.Background(), Src: 0, Dst: 19, Cursor: res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
		t.Fatalf("resumed after deadline %+v != uninterrupted %+v", got, want)
	}
}

// TestDynamicResumeAfterExternalAdvance: a cursor minted on one topology
// version resumes after the world has been mutated externally — the walk
// re-enters at the original node's canonical gadget and still reaches a
// verdict.
func TestDynamicResumeAfterExternalAdvance(t *testing.T) {
	r := NewRouter(NewWorld(gen.Torus(4, 5), nil), Config{Seed: 2, HopsPerEpoch: -1}, nil)
	res, err := r.RouteQuery(route.Query{Ctx: context.Background(), Src: 0, Dst: 19, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != route.ExhaustBudget {
		t.Fatalf("walk not exhausted: %+v", res)
	}
	w := r.World()
	if _, _, err := w.AddEdge(0, 19); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveEdgeBetween(0, 19); err != nil {
		t.Fatal(err)
	}
	if w.Version() == res.Cursor.Version {
		t.Fatal("external mutation did not bump the version")
	}
	got, err := r.RouteQuery(route.Query{Ctx: context.Background(), Src: 0, Dst: 19, Cursor: res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != netsim.StatusSuccess {
		t.Fatalf("resumed walk on mutated world: %+v", got)
	}
	if got.Resumptions == 0 {
		t.Fatal("cross-version resume did not count a resumption")
	}
}

// TestDynamicBudgetedRejects covers the refusal surface of the dynamic
// budgeted API.
func TestDynamicBudgetedRejects(t *testing.T) {
	ctx := context.Background()
	base := gen.Torus(4, 5)

	ref := NewRouter(NewWorld(base, nil), Config{Seed: 1, DisableFlat: true}, nil)
	if _, err := ref.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 10}); !errors.Is(err, route.ErrBudgetUnsupported) {
		t.Fatalf("DisableFlat error = %v, want ErrBudgetUnsupported", err)
	}

	r := NewRouter(NewWorld(base, nil), Config{Seed: 1, HopsPerEpoch: -1}, nil)
	res, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != route.ExhaustBudget {
		t.Fatalf("budget-1 walk not exhausted: %+v", res)
	}
	cur := *res.Cursor
	cur.Dst = 3
	if _, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 1, Cursor: &cur}); !errors.Is(err, route.ErrBadCursor) {
		t.Fatalf("mismatched-pair cursor error = %v, want ErrBadCursor", err)
	}
	cur = *res.Cursor
	cur.Bound = 0
	if _, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 1, Cursor: &cur}); !errors.Is(err, route.ErrBadCursor) {
		t.Fatalf("zero-bound cursor error = %v, want ErrBadCursor", err)
	}
	cur = *res.Cursor
	cur.Node = 1 << 30
	if _, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 1, Cursor: &cur}); !errors.Is(err, route.ErrBadCursor) {
		t.Fatalf("out-of-range cursor error = %v, want ErrBadCursor", err)
	}
	cur = *res.Cursor
	cur.Version++
	cur.At = 424242 // re-entry node that does not exist on this topology
	if _, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 19, Budget: 1, Cursor: &cur}); !errors.Is(err, route.ErrBadCursor) {
		t.Fatalf("missing re-entry cursor error = %v, want ErrBadCursor", err)
	}

	if res, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 9, Dst: 9, Budget: 1}); err != nil || res.Status != netsim.StatusSuccess {
		t.Fatalf("self route = %+v, %v", res, err)
	}
	if _, err := r.RouteQuery(route.Query{Ctx: ctx, Src: 4242, Dst: 0, Budget: 1}); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("missing source error = %v", err)
	}
}

// TestWorldChaos exercises the fault hooks: an injected compile fault
// surfaces as ErrInjected (never a verdict), an epoch stall and per-hop
// delay fire and are counted, and removing the injector restores clean
// routing.
func TestWorldChaos(t *testing.T) {
	w := NewWorld(gen.Torus(4, 5), nil)
	r := NewRouter(w, Config{Seed: 4, HopsPerEpoch: 16}, nil)

	w.SetChaos(chaos.New(chaos.Config{Seed: 1, CompileFailRate: 1}))
	if _, _, err := w.AddEdge(0, 7); err != nil { // invalidate the compile cache
		t.Fatal(err)
	}
	if _, err := r.Route(0, 19); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("route under compile faults: err = %v, want ErrInjected", err)
	}

	inj := chaos.New(chaos.Config{Seed: 2, HopDelay: 1, EpochStall: 1})
	w.SetChaos(inj)
	res, err := r.Route(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("route under latency chaos: %+v", res)
	}
	st := inj.Stats()
	if st.HopDelays != res.Hops {
		t.Fatalf("hop delays fired %d times over %d hops", st.HopDelays, res.Hops)
	}
	if res.Epochs > 0 && st.EpochStalls == 0 {
		t.Fatalf("epochs advanced %d times, no stall fired", res.Epochs)
	}

	w.SetChaos(nil)
	if res, err := r.Route(0, 19); err != nil || res.Status != netsim.StatusSuccess {
		t.Fatalf("route after chaos removed: %+v, %v", res, err)
	}
}
