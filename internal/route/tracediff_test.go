package route

// tracediff_test.go pins the tracing contract: a traced route runs on the
// compiled flat path (the instrumented stepper, never the netsim
// fallback) and returns a Result bit-for-bit identical to the untraced
// one — verdict, hops, forward steps, round schedule, header and memory
// metering — while the span tree captures every hop of every round.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
)

// budgetsThatNeverStrike are the query budgets the tracing differential
// runs: none, and one far above any test walk — a bounded walk must trace
// exactly like an unbounded one.
var budgetsThatNeverStrike = []int64{0, 1 << 40}

// diffTraced routes q's pair untraced and then q traced, and fails on any
// Result divergence; it returns the traced request's exported form.
func diffTraced(t *testing.T, g *graph.Graph, cfg Config, q Query) trace.Export {
	t.Helper()
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, dst := q.Src, q.Dst
	plain, errPlain := r.Route(s, dst)

	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.StartRequest("route", "")
	q.Span = tr.Root()
	traced, errTraced := r.RouteQuery(q)
	tr.Finish()

	if (errPlain == nil) != (errTraced == nil) {
		t.Fatalf("route %d->%d: untraced err %v, traced err %v", s, dst, errPlain, errTraced)
	}
	if errPlain == nil && !reflect.DeepEqual(plain, traced) {
		t.Fatalf("route %d->%d diverged:\nuntraced: %+v\ntraced:   %+v", s, dst, plain, traced)
	}
	kept := tc.Recorder().Find(tr.ID())
	if kept == nil {
		t.Fatalf("route %d->%d: trace not retained", s, dst)
	}
	return kept.Export()
}

// TestTracedRouteMatchesUntraced is the acceptance differential: over
// random labeled multigraphs, tracing changes nothing about the Result,
// every round appears as a flat "route.round" span (no netsim fallback),
// and the spans' hop totals sum to the Result's hop count — with and
// without a budget.
func TestTracedRouteMatchesUntraced(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomMultigraph(seed, 8+int(seed%6), int(seed%8))
		nodes := g.SortedNodes()
		cfg := Config{Seed: seed, LengthFactor: 1}
		for _, dst := range []graph.NodeID{nodes[len(nodes)-1], graph.NodeID(999983)} {
			s := nodes[0]
			r, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Route(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range budgetsThatNeverStrike {
				ex := diffTraced(t, g, cfg, Query{Src: s, Dst: dst, Budget: budget})

				var hops int64
				rounds := 0
				for _, sp := range ex.Spans {
					hops += sp.HopTotal
					if sp.Name == "route.round" {
						rounds++
					}
					for _, ev := range sp.Events {
						if ev.Name == "route.round.netsim" {
							t.Fatalf("seed %d dst %d budget %d: traced round fell back to netsim", seed, dst, budget)
						}
					}
				}
				if rounds != len(want.Rounds) {
					t.Fatalf("seed %d dst %d budget %d: %d round spans, Result has %d rounds",
						seed, dst, budget, rounds, len(want.Rounds))
				}
				if hops != want.Hops {
					t.Fatalf("seed %d dst %d budget %d: spans recorded %d hops, Result.Hops = %d",
						seed, dst, budget, hops, want.Hops)
				}
			}
		}
	}
}

// TestTracedRouteHopTail checks the per-hop evidence on an unreachable
// pair: the terminal round's span retains the tail of the walk, with the
// header bits of every retained hop matching the reference serialization
// at that hop's index.
func TestTracedRouteHopTail(t *testing.T) {
	g := randomMultigraph(3, 10, 4)
	nodes := g.SortedNodes()
	// Certificates are disabled so the unreachable pair walks its budget
	// and leaves per-hop evidence behind.
	for _, budget := range budgetsThatNeverStrike {
		ex := diffTraced(t, g, Config{Seed: 3, LengthFactor: 1, DisableCertificates: true},
			Query{Src: nodes[0], Dst: graph.NodeID(999983), Budget: budget})
		checkHopTail(t, ex)
	}
}

// checkHopTail checks the terminal round span's retained hop tail.
func checkHopTail(t *testing.T, ex trace.Export) {
	t.Helper()
	last := ex.Spans[len(ex.Spans)-1]
	if last.Name != "route.round" || last.HopTotal == 0 {
		t.Fatalf("terminal span %+v has no hops", last)
	}
	if int64(len(last.Hops))+last.HopsDropped != last.HopTotal {
		t.Fatalf("hop accounting: kept %d + dropped %d != total %d", len(last.Hops), last.HopsDropped, last.HopTotal)
	}
	for _, h := range last.Hops {
		if h.HeaderBits <= 0 {
			t.Fatalf("hop %+v missing header bits", h)
		}
	}
	// The retained tail must end at the delivery hop (ordinal total-1).
	if lastHop := last.Hops[len(last.Hops)-1]; lastHop.Hop != last.HopTotal-1 || !lastHop.Backward {
		t.Fatalf("tail does not end at the backward delivery hop: %+v", lastHop)
	}
}
