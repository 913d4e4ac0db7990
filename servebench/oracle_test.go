package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubDaemon answers the route endpoints from the true components of the
// workload's networks, except the replies wrong() picks, which it flips.
func stubDaemon(t *testing.T, w *workload, wrong func(n int64) bool) *httptest.Server {
	t.Helper()
	comps := map[string][]int32{"/v1/route": nil}
	for i := -1; i < len(w.nets); i++ {
		g, err := buildGraph(w.netSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		path := "/v1/route"
		if i >= 0 {
			path = netPath(w.nets[i], "route")
		}
		comps[path] = graphComponents(g)
	}
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req struct{ Src, Dst int64 }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		c, ok := comps[r.URL.Path]
		if !ok {
			http.NotFound(rw, r)
			return
		}
		reach := c[req.Src] == c[req.Dst]
		if wrong(n.Add(1)) {
			reach = !reach
		}
		status := "failure"
		if reach {
			status = "success"
		}
		fmt.Fprintf(rw, `{"src":%d,"dst":%d,"status":%q}`, req.Src, req.Dst, status)
	}))
}

func runJobs(rn *runner, jobs []*job) []result {
	rs := make([]result, len(jobs))
	for i, j := range jobs {
		rn.exec(j, &rs[i], nil)
	}
	return rs
}

func TestWrongStubVerdictIsCounted(t *testing.T) {
	w, _ := findWorkload("route_small")
	for _, tc := range []struct {
		name  string
		wrong func(int64) bool
		want  int
	}{
		{"all right", func(int64) bool { return false }, 0},
		{"third reply flipped", func(n int64) bool { return n == 3 }, 1},
		{"every reply flipped", func(int64) bool { return true }, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := stubDaemon(t, w, tc.wrong)
			defer srv.Close()
			orc, err := newOracle(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			rs := runJobs(newRunner(srv.URL, 2, nil), newJobGen(w, 1, 1, []int64{100}).make(40))
			for _, r := range rs {
				if r.fails != 0 {
					t.Fatalf("request failed: %s", r.firstError)
				}
			}
			if err := orc.check(rs); err != nil {
				t.Fatal(err)
			}
			if orc.wrong != tc.want {
				t.Fatalf("wrong verdicts = %d, want %d (%v)", orc.wrong, tc.want, orc.notes)
			}
		})
	}
}

func TestBudgetedWalkIsStitched(t *testing.T) {
	w, _ := findWorkload("walk_large")
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		switch len(bodies) {
		case 1:
			fmt.Fprint(rw, `{"status":"budget_exhausted","exhausted":"budget","resume":"tok-1"}`)
		case 2:
			fmt.Fprint(rw, `{"status":"budget_exhausted","exhausted":"budget","resume":"tok-2"}`)
		default:
			fmt.Fprint(rw, `{"status":"success"}`)
		}
	}))
	defer srv.Close()
	j := newJobGen(w, 1, 0, []int64{50}).job(slot{netBudget, 0})
	j.pairs = [][2]int64{{0, 1023}}
	if got := string(j.resumeBody("tok-1")); got != `{"src":0,"dst":1023,"budget_hops":50,"resume":"tok-1"}` {
		t.Fatalf("resume body %s", got)
	}
	var res result
	newRunner(srv.URL, 1, nil).exec(j, &res, nil)
	if res.fails != 0 || res.segments != 3 || res.reqs != 3 || !slices.Equal(res.statuses, []string{"success"}) {
		t.Fatalf("stitched walk: %+v", res)
	}
	if !strings.Contains(bodies[1], `"resume":"tok-1"`) || !strings.Contains(bodies[2], `"resume":"tok-2"`) {
		t.Fatalf("segments did not carry the previous token: %q", bodies)
	}
	orc, err := newOracle(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	orc.check([]result{res})
	if orc.wrong != 0 {
		t.Fatalf("stitched success on a connected grid counted wrong: %v", orc.notes)
	}
	res.statuses = []string{"failure"}
	orc.check([]result{res})
	if orc.wrong != 1 {
		t.Fatal("stitched failure on a connected grid not counted")
	}
}

func TestWorldReplayIsDeterministic(t *testing.T) {
	w, _ := findWorkload("world_churn")
	a, err := newWorldReplay(w.nets[0], w.worldSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newWorldReplay(w.nets[0], w.worldSpec(7))
	if err := a.ensure(200); err != nil {
		t.Fatal(err)
	}
	b.ensure(200)
	changed := false
	for e := 0; e <= 200; e++ {
		if !slices.Equal(a.edges[e], b.edges[e]) {
			t.Fatalf("epoch %d: replays differ", e)
		}
		changed = changed || len(a.edges[e]) != len(a.edges[0])
	}
	if !changed {
		t.Fatal("the schedule never changed the link count; the workload would not churn")
	}
}

func TestWorldVerdictWindow(t *testing.T) {
	w, _ := findWorkload("world_churn")
	r, err := newWorldReplay(w.nets[0], w.worldSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	r.ensure(3)
	// Cut node 5 off at epoch 2 only.
	for e := range r.comps {
		r.comps[e] = make([]int32, r.n)
	}
	r.comps[2][5] = 1
	r.edges[2] = nil
	if !r.deliverable(0, 5, 1, 2) || r.separable(0, 5, 0, 1) || !r.separable(0, 5, 1, 3) {
		t.Fatal("window checks disagree with the epoch labels")
	}
	o := &oracle{world: r}
	o.check([]result{
		{j: &job{kind: worldRoute, pairs: [][2]int64{{0, 5}}}, statuses: []string{"failure"}, lo: 0, hi: 1},
		{j: &job{kind: worldRoute, pairs: [][2]int64{{0, 5}}}, statuses: []string{"failure"}, lo: 2, hi: 2},
	})
	if o.wrong != 1 {
		t.Fatalf("wrong = %d, want 1 (a failure outside the cut window)", o.wrong)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const delay = 3 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		fmt.Fprint(rw, `{"status":"success"}`)
	}))
	defer srv.Close()
	w, _ := findWorkload("route_small")
	jobs := newJobGen(w, 1, 3, []int64{1}).make(40)
	// One connection at 2000/s against a 3 ms server: a backlog builds,
	// and latency from the due time must grow with it.
	rs, lags := newRunner(srv.URL, 1, nil).openLoop(jobs, 2000, false, 1)
	if len(rs) != 40 || len(lags) != 40 {
		t.Fatalf("%d results, %d lags; want 40", len(rs), len(lags))
	}
	for _, r := range rs {
		if r.latency() < delay || r.latency() < r.done.Sub(r.start) {
			t.Fatalf("latency %v: not timed from the due time", r.latency())
		}
	}
	if last := rs[len(rs)-1].latency(); last < 30*delay {
		t.Fatalf("last job latency %v: the backlog did not count", last)
	}
}

func TestPeakRate(t *testing.T) {
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	ws := []window{{at(250e3), at(500e3), 0.0}, {at(500e3), at(750e3), 0.1}}
	j := &job{kind: bootRoute, pairs: [][2]int64{{0, 1}}}
	var rs []result
	for us := 0; us < 1e6; us += 10000 {
		rs = append(rs, result{j: j, due: at(us), start: at(us), done: at(us + 5)})
	}
	// 25 verdicts per 250 ms window; the stolen share scales each up.
	if got := peakRate(rs, ws); !near(got, (100+100/0.9)/2) {
		t.Fatalf("peak = %v", got)
	}
}

func TestFastestSends(t *testing.T) {
	j := &job{kind: bootRoute, pairs: [][2]int64{{0, 1}}}
	t0 := time.Now()
	send := func(ms int, fails int) result {
		return result{j: j, due: t0, start: t0, done: t0.Add(time.Duration(ms) * time.Millisecond), fails: fails}
	}
	// Three jobs, three passes: the fastest send of each counts, and a
	// failed send has no latency, however short.
	open := []result{send(5, 0), send(9, 0), send(4, 0),
		send(2, 0), send(1, 1), send(8, 0),
		send(7, 0), send(3, 0), send(6, 0)}
	got := fastestSends(open, 3)
	want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("fastest sends %v, want %v", got, want)
	}
	// A job none of whose sends succeeded is left out.
	if got := fastestSends(open[:2], 3); len(got) != 2 {
		t.Fatalf("%v: want the two jobs sent", got)
	}
}
