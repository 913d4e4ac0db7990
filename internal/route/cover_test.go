package route

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
)

// TestCoverSkipMatchesCoverWalk is the differential behind the O(1) cover
// skip: for every round that fails to find t, covered's answer equals the
// full closure walk's — on random labeled multigraphs (several components,
// self-loops, parallel edges) and for reachable, cross-component, and
// absent targets.
func TestCoverSkipMatchesCoverWalk(t *testing.T) {
	skipped, walked := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		g := randomMultigraph(seed, 10+int(seed%7), int(seed%5))
		r := newRouter(t, g, Config{Seed: seed, LengthFactor: 1, DisableCertificates: true})
		nodes := g.SortedNodes()
		targets := append(append([]graph.NodeID{}, nodes...), 999983)
		for _, s := range nodes[:3] {
			start, err := r.entry(s)
			if err != nil {
				continue // isolated sources are rejected before any round
			}
			si, _ := r.flat.Index(start)
			for _, dst := range targets {
				if dst == s {
					continue
				}
				for bound := 4; bound <= 4*r.flat.NumNodes(); bound *= 2 {
					out, err := r.flat.RouteWalk(si, s, dst, r.dirs.Seq(r.sequence(bound).Len()))
					if err != nil {
						t.Fatal(err)
					}
					if out.Success {
						continue // covered is only asked after failed rounds
					}
					got, err := r.covered(start, dst, bound)
					if err != nil {
						t.Fatal(err)
					}
					want, err := r.coverWalk(start, bound)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d %d->%d bound %d: covered %v, closure walk %v", seed, s, dst, bound, got, want)
					}
					if r.sharesComponent(start, dst) {
						skipped++
					} else {
						walked++
					}
				}
			}
		}
	}
	if skipped == 0 || walked == 0 {
		t.Fatalf("differential exercised %d skipped and %d walked checks; want both", skipped, walked)
	}
}

// TestCoverSkipKeepsTraceEvents pins that a failed round answered by the
// component index still emits its route.cover_check event, so traces read
// the same whether or not the closure walk ran.
func TestCoverSkipKeepsTraceEvents(t *testing.T) {
	r := newRouter(t, gen.Grid(8, 8), Config{Seed: 5})
	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.StartRequest("route", "")
	res, err := r.RouteQuery(Query{Src: 0, Dst: 63, Span: tr.Root()})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("route took %d rounds; the test needs a failed round", len(res.Rounds))
	}
	var checks []map[string]any
	for _, sp := range tc.Recorder().Find(tr.ID()).Export().Spans {
		for _, ev := range sp.Events {
			if ev.Name == "route.cover_check" {
				checks = append(checks, ev.Attrs)
			}
		}
	}
	if len(checks) != len(res.Rounds)-1 {
		t.Fatalf("%d cover_check events for %d failed rounds", len(checks), len(res.Rounds)-1)
	}
	for k, ev := range checks {
		want := map[string]any{"bound": int64(res.Rounds[k].Bound), "covered": false}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("cover_check %d: %v, want %v", k, ev, want)
		}
	}
}

// certificateEvent returns the attrs of the single route.certificate event
// recorded under a fresh trace by do.
func certificateEvent(t *testing.T, do func(sp *trace.Span)) map[string]any {
	t.Helper()
	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.StartRequest("route", "")
	do(tr.Root())
	tr.Finish()
	var found []map[string]any
	for _, sp := range tc.Recorder().Find(tr.ID()).Export().Spans {
		for _, ev := range sp.Events {
			if ev.Name == "route.certificate" {
				found = append(found, ev.Attrs)
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d route.certificate events, want 1", len(found))
	}
	return found[0]
}

// TestBudgetedCertificateEventMatchesUnbudgeted pins the budgeted walk's
// certificate event to the unbudgeted one's, attribute for attribute —
// including the component count.
func TestBudgetedCertificateEventMatchesUnbudgeted(t *testing.T) {
	r := newRouter(t, disjoint(t), Config{Seed: 7})
	for _, dst := range []graph.NodeID{100, 424242} {
		plain := certificateEvent(t, func(sp *trace.Span) {
			if _, err := r.RouteQuery(Query{Src: 0, Dst: dst, Span: sp}); err != nil {
				t.Fatal(err)
			}
		})
		budgeted := certificateEvent(t, func(sp *trace.Span) {
			if _, err := r.RouteQuery(Query{Ctx: context.Background(), Src: 0, Dst: dst, Budget: 1000, Span: sp}); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(plain, budgeted) {
			t.Fatalf("dst %d: budgeted certificate %v, unbudgeted %v", dst, budgeted, plain)
		}
		if _, ok := plain["components"]; !ok {
			t.Fatalf("dst %d: certificate event %v lacks components", dst, plain)
		}
	}
}
