package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestLagPastBoundGivesNoResult(t *testing.T) {
	j := &job{kind: bootRoute, pairs: [][2]int64{{0, 1}}}
	t0 := time.Now()
	var open []result
	for i := 0; i < 100; i++ {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		open = append(open, result{j: j, due: due, start: due, done: due.Add(time.Millisecond)})
	}
	lags := func(d time.Duration) []time.Duration {
		ls := make([]time.Duration, len(open))
		for i := range ls {
			ls[i] = d
		}
		return ls
	}
	ph := &phases{open: open, jobs: len(open), lags: lags(time.Millisecond), allSetups: []float64{0.1}}
	e2e, _, err := endToEnd(ph)
	if err != nil || e2e["p50_ms"].Value <= 0 {
		t.Fatalf("steady generator: p50 %v, err %v", e2e["p50_ms"], err)
	}
	ph.lags = lags(lagBound + time.Millisecond)
	e2e, extra, err := endToEnd(ph)
	if err == nil || !strings.Contains(err.Error(), "invalid run") || e2e != nil || extra != nil {
		t.Fatalf("lagging generator: got metrics %v, err %v; want none and an invalid run", e2e, err)
	}
}

func TestJobSpansHangUnderTheirPhase(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprint(rw, `{"status":"success"}`)
	}))
	defer srv.Close()
	w, _ := findWorkload("route_small")
	jobs := newJobGen(w, 1, 1, []int64{1}).make(8)
	b := &bench{tr: newTracer()}
	rn := newRunner(srv.URL, 1, b.tr)
	phaseOf := map[string]int64{}
	for _, name := range []string{"warmup", "closed_loop"} {
		b.phaseSpan(name, func(id int64) {
			rn.phase = id
			phaseOf[name] = id
			for _, j := range jobs {
				rn.exec(j, &result{}, rn.tr)
			}
		})
	}
	byID := map[int64]span{}
	for _, s := range b.tr.spans {
		byID[s.ID] = s
	}
	jobsSeen := 0
	for _, s := range b.tr.spans {
		if !strings.HasPrefix(s.Name, "job.") {
			continue
		}
		jobsSeen++
		p, ok := byID[s.Parent]
		if !ok || (p.Name != "warmup" && p.Name != "closed_loop") || phaseOf[p.Name] != p.ID {
			t.Fatalf("job span %d hangs under %d (%q), not a phase", s.ID, s.Parent, p.Name)
		}
		if p.Start > s.Start || p.End < s.End {
			t.Fatalf("job span [%d,%d] outside its phase %q [%d,%d]", s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if jobsSeen != 2*len(jobs) {
		t.Fatalf("%d job spans, want %d", jobsSeen, 2*len(jobs))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, wls []string
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bm.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range bm.Workloads {
		wls = append(wls, w.Name)
	}
	var ours, ourWls []string
	for _, m := range layerMetrics {
		ours = append(ours, m.name+" "+m.unit)
	}
	for _, w := range workloads {
		ourWls = append(ourWls, w.name)
	}
	if !slices.Equal(e2e, endToEndNames) || !slices.Equal(layers, ours) || !slices.Equal(wls, ourWls) {
		t.Fatalf("BENCHMARK.json lists\n%v\n%v\n%v\nthe benchmark reports\n%v\n%v\n%v", e2e, layers, wls, endToEndNames, ours, ourWls)
	}
}
