package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func loadScrape(t *testing.T, path string) scrape {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// testdata/metrics.txt is a /metrics scrape of the non-owning shard of a
// two-shard adhocd cluster, cut to the families the benchmark reads, after
// it forwarded two network registrations and five registered-network
// routes and served one boot-network route itself.
func TestParseCapturedMetrics(t *testing.T) {
	s := loadScrape(t, "testdata/metrics.txt")
	const ep = "POST /v1/networks/{id}/route"
	h := s.histogram(httpSeconds, ep)
	if h.count != 5 {
		t.Fatalf("count = %v, want 5", h.count)
	}
	if h.sum <= 0 || len(h.buckets) == 0 || !math.IsInf(h.buckets[len(h.buckets)-1].le, 1) {
		t.Fatalf("histogram %+v: want a positive sum and buckets ending at +Inf", h)
	}
	if last := h.buckets[len(h.buckets)-1].n; last != h.count {
		t.Fatalf("+Inf bucket %v != count %v", last, h.count)
	}
	if got := s.sum("adhoc_cluster_forwards_total", ""); got != 7 {
		t.Fatalf("forwards = %v, want 7", got)
	}
	if got := s.sum("adhoc_http_rejected_total", ""); got != 0 {
		t.Fatalf("rejected = %v, want 0", got)
	}
	if got := s.sum("go_gc_cycles_total", ""); got < 0 {
		t.Fatalf("gc cycles = %v", got)
	}
	both := s.histogram(httpSeconds, ep, "POST /v1/route")
	if both.count != 6 {
		t.Fatalf("merged count = %v, want 6", both.count)
	}
	if q := h.quantile(0.5); q <= 0 || q > h.buckets[len(h.buckets)-2].le {
		t.Fatalf("median %v outside the finite buckets", q)
	}
}

func TestScrapeDiffAndQuantile(t *testing.T) {
	parse := func(text string) scrape {
		s, err := parseMetrics(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse(`# TYPE h histogram
h_bucket{endpoint="a",le="0.001"} 1
h_bucket{endpoint="a",le="0.01"} 2
h_bucket{endpoint="a",le="+Inf"} 2
h_sum{endpoint="a"} 0.005
h_count{endpoint="a"} 2
c_total 7
`)
	after := parse(`h_bucket{endpoint="a",le="0.001"} 1
h_bucket{endpoint="a",le="0.01"} 12
h_bucket{endpoint="a",le="+Inf"} 12
h_sum{endpoint="a"} 0.055
h_count{endpoint="a"} 12
c_total 10
`)
	d := after.minus(before)
	if got := d.sum("c_total", ""); got != 3 {
		t.Fatalf("counter diff = %v, want 3", got)
	}
	h := d.histogram("h", "a")
	if h.count != 10 || !near(h.sum, 0.05) || !near(h.mean(), 0.005) {
		t.Fatalf("diff histogram %+v", h)
	}
	// All ten new observations sit in (0.001, 0.01]: the median
	// interpolates to the middle of that bucket.
	if q := h.quantile(0.5); !near(q, 0.0055) {
		t.Fatalf("median = %v, want 0.0055", q)
	}
}

func TestParseLabelsEscapes(t *testing.T) {
	got, err := parseLabels(`a="x\"y",b="p\\q",c="l1\nl2"`)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != `x"y` || got["b"] != `p\q` || got["c"] != "l1\nl2" {
		t.Fatalf("labels = %q", got)
	}
	if _, err := parseLabels(`a="open`); err == nil {
		t.Fatal("unterminated value accepted")
	}
}

// testdata/proc_stat.txt is a captured /proc/<pid>/stat line whose
// utime and stime were set to 1234 and 567 ticks and whose command name
// was replaced by one holding spaces and parentheses.
func TestCPUTicksCaptured(t *testing.T) {
	b, err := os.ReadFile("testdata/proc_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpuTicks(b)
	if err != nil || got != 1234+567 {
		t.Fatalf("cpuTicks = %v, %v; want 1801", got, err)
	}
	if _, err := cpuTicks([]byte("12 (x) R 1 2")); err == nil {
		t.Fatal("short stat line accepted")
	}
}

// testdata/proc_status.txt is a captured /proc/<pid>/status.
func TestStatusKBCaptured(t *testing.T) {
	b, err := os.ReadFile("testdata/proc_status.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := statusKB(b, "VmHWM")
	if err != nil || got != 1324 {
		t.Fatalf("VmHWM = %v, %v; want 1324", got, err)
	}
	if _, err := statusKB(b, "NoSuchField"); err == nil {
		t.Fatal("missing field accepted")
	}
}

// testdata/host_stat.txt is the head of a captured /proc/stat.
func TestStealTicksCaptured(t *testing.T) {
	b, err := os.ReadFile("testdata/host_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := stealTicks(b)
	if err != nil || got != 19133 {
		t.Fatalf("steal = %v, %v; want 19133", got, err)
	}
}

func TestLiveProcReaders(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := procHWM(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("procHWM = %v, %v", mb, err)
	}
}
