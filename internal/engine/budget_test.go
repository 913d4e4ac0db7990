package engine

import (
	"context"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
)

// disjointGraph is a two-component network: a 4×4 grid and a 5-cycle at
// offset 100. Cross-component pairs are provably unreachable.
func disjointGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(5), 100)
	if err != nil {
		t.Fatalf("DisjointUnion: %v", err)
	}
	return g
}

// TestEngineCertificate: an unreachable pair on a multi-component network
// is answered in O(1) with a certificate through the plain Route path, the
// certificate is counted, and DisableCertificates forces the full walk.
func TestEngineCertificate(t *testing.T) {
	e := mustCompile(t, disjointGraph(t), Config{Seed: 7})
	res, err := e.Route(0, 102)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if res.Status != netsim.StatusFailure || res.Certificate == nil {
		t.Fatalf("unreachable pair: status %v, certificate %v", res.Status, res.Certificate)
	}
	if res.Hops != 0 || len(res.Rounds) != 0 {
		t.Fatalf("certified failure walked: %d hops, %d rounds", res.Hops, len(res.Rounds))
	}
	if s := e.Stats(); s.Certificates != 1 {
		t.Fatalf("Certificates = %d, want 1", s.Certificates)
	}

	burn := mustCompile(t, disjointGraph(t), Config{Seed: 7, DisableCertificates: true})
	res, err = burn.Route(0, 102)
	if err != nil {
		t.Fatalf("Route (certificates off): %v", err)
	}
	if res.Status != netsim.StatusFailure || res.Certificate != nil {
		t.Fatalf("certificates off: status %v, certificate %v", res.Status, res.Certificate)
	}
	if res.Hops == 0 {
		t.Fatal("certificates off but the failure verdict cost no hops")
	}
	if s := burn.Stats(); s.Certificates != 0 {
		t.Fatalf("certificates off but counted %d", s.Certificates)
	}
}

// engineRunToVerdict drives a budgeted walk to its verdict in budget-sized
// continuations, returning the final result and the continuation count.
func engineRunToVerdict(t *testing.T, e *Engine, s, dst graph.NodeID, budget int64) (*route.Result, int) {
	t.Helper()
	var cur *route.Cursor
	for i := 0; i < 200000; i++ {
		res, err := e.RouteQuery(route.Query{Ctx: context.Background(), Src: s, Dst: dst, Budget: budget, Cursor: cur})
		if err != nil {
			t.Fatalf("RouteQuery (continuation %d): %v", i, err)
		}
		if res.Exhausted == "" {
			return res, i
		}
		if res.Cursor == nil {
			t.Fatalf("exhausted %q without a cursor", res.Exhausted)
		}
		cur = res.Cursor
	}
	t.Fatal("walk did not finish in 200000 continuations")
	return nil, 0
}

// TestEngineRouteBudgetedSplitEqualsUninterrupted: the engine entry point
// preserves the router's split == uninterrupted equality and books the
// exhaustion/resume metrics.
func TestEngineRouteBudgetedSplitEqualsUninterrupted(t *testing.T) {
	e := mustCompile(t, gen.Torus(5, 5), Config{Seed: 3})
	full, n := engineRunToVerdict(t, e, 0, 18, 0)
	if n != 0 || full.Status != netsim.StatusSuccess {
		t.Fatalf("uninterrupted run: %d continuations, status %v", n, full.Status)
	}
	split, n := engineRunToVerdict(t, e, 0, 18, 1)
	if n < 2 {
		t.Fatalf("budget-1 walk finished in %d continuations", n)
	}
	if split.Status != full.Status || split.Hops != full.Hops ||
		split.Bound != full.Bound || split.MaxHeaderBits != full.MaxHeaderBits {
		t.Fatalf("split (%v, %d hops, bound %d, %d bits) != uninterrupted (%v, %d hops, bound %d, %d bits)",
			split.Status, split.Hops, split.Bound, split.MaxHeaderBits,
			full.Status, full.Hops, full.Bound, full.MaxHeaderBits)
	}
	s := e.Stats()
	if s.BudgetExhausted != int64(n) {
		t.Fatalf("BudgetExhausted = %d, want %d", s.BudgetExhausted, n)
	}
	if s.ResumedWalks != int64(n) {
		t.Fatalf("ResumedWalks = %d, want %d", s.ResumedWalks, n)
	}
}

// TestEngineRouteBudgetedDeadline: an already-canceled context exhausts at
// the first round boundary and the walk resumes to the uninterrupted
// verdict.
func TestEngineRouteBudgetedDeadline(t *testing.T) {
	e := mustCompile(t, gen.Torus(4, 5), Config{Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RouteQuery(route.Query{Ctx: ctx, Src: 0, Dst: 13})
	if err != nil {
		t.Fatalf("RouteQuery: %v", err)
	}
	if res.Exhausted != route.ExhaustDeadline || res.Cursor == nil {
		t.Fatalf("canceled ctx: exhausted %q, cursor %v", res.Exhausted, res.Cursor)
	}
	resumed, err := e.RouteQuery(route.Query{Ctx: context.Background(), Src: 0, Dst: 13, Cursor: res.Cursor})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	full, err := e.RouteQuery(route.Query{Ctx: context.Background(), Src: 0, Dst: 13})
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	if resumed.Status != full.Status || resumed.Hops != full.Hops {
		t.Fatalf("resumed (%v, %d hops) != uninterrupted (%v, %d hops)",
			resumed.Status, resumed.Hops, full.Status, full.Hops)
	}
}

// TestEngineRouteDynamicBudgeted: the dynamic engine entry point exhausts,
// resumes to the same verdict as an uninterrupted run over an identical
// fresh world, and answers unreachable pairs with an epoch-stamped
// certificate.
func TestEngineRouteDynamicBudgeted(t *testing.T) {
	e := mustCompile(t, gen.Torus(5, 5), Config{Seed: 3})
	dcfg := dynamic.Config{HopsPerEpoch: 16}
	sched := func() dynamic.Schedule { return &dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1} }

	full, err := e.RouteDynamicQuery(e.NewWorld(sched()), route.Query{Ctx: context.Background(), Src: 0, Dst: 18}, dcfg)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}
	if full.Status != netsim.StatusSuccess {
		t.Fatalf("uninterrupted status %v", full.Status)
	}

	w := e.NewWorld(sched())
	var cur *route.Cursor
	var res *dynamic.Result
	continuations := 0
	for {
		res, err = e.RouteDynamicQuery(w, route.Query{Ctx: context.Background(), Src: 0, Dst: 18, Budget: 7, Cursor: cur}, dcfg)
		if err != nil {
			t.Fatalf("continuation %d: %v", continuations, err)
		}
		if res.Exhausted == "" {
			break
		}
		if res.Cursor == nil {
			t.Fatalf("exhausted %q without a cursor", res.Exhausted)
		}
		cur = res.Cursor
		continuations++
		if continuations > 200000 {
			t.Fatal("walk did not finish")
		}
	}
	if continuations == 0 {
		t.Fatal("budget-7 dynamic walk never exhausted")
	}
	if res.Status != full.Status || res.Hops != full.Hops || res.Epochs != full.Epochs ||
		res.MaxHeaderBits != full.MaxHeaderBits {
		t.Fatalf("split (%v, %d hops, %d epochs, %d bits) != uninterrupted (%v, %d hops, %d epochs, %d bits)",
			res.Status, res.Hops, res.Epochs, res.MaxHeaderBits,
			full.Status, full.Hops, full.Epochs, full.MaxHeaderBits)
	}
	s := e.Stats()
	if s.BudgetExhausted == 0 || s.ResumedWalks == 0 {
		t.Fatalf("budget metrics not booked: %+v", s)
	}

	// Unreachable pair over a static multi-component world: certified in
	// O(1), stamped with the world's epoch and version.
	de := mustCompile(t, disjointGraph(t), Config{Seed: 7})
	dw := de.NewWorld(dynamic.Static{})
	dres, err := de.RouteDynamicQuery(dw, route.Query{Ctx: context.Background(), Src: 0, Dst: 102}, dynamic.Config{})
	if err != nil {
		t.Fatalf("dynamic certificate route: %v", err)
	}
	if dres.Status != netsim.StatusFailure || dres.Certificate == nil {
		t.Fatalf("dynamic unreachable pair: status %v, certificate %v", dres.Status, dres.Certificate)
	}
	if dres.Hops != 0 {
		t.Fatalf("dynamic certified failure walked %d hops", dres.Hops)
	}
	snap := dw.Snapshot()
	if dres.Certificate.Epoch != snap.Epoch || dres.Certificate.Version != snap.Version {
		t.Fatalf("certificate stamp (%d, %d) != world (%d, %d)",
			dres.Certificate.Epoch, dres.Certificate.Version, snap.Epoch, snap.Version)
	}
	if ds := de.Stats(); ds.Certificates != 1 {
		t.Fatalf("dynamic Certificates = %d, want 1", ds.Certificates)
	}
}
