// Command servebench is the serving benchmark of adhocd: it launches the
// daemon built from this tree on loopback, drives one workload at it from
// a single process over at most GOMAXPROCS connections, checks every
// verdict against an in-process oracle, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer table) by name with their units. The
// last line of its output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// Run it through run.sh, which builds both binaries first:
//
//	bash servebench/run.sh --workload walk_large --seed 3 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// A run sets the workload up in four groups: before the load, between
	// the closed and the open loop, halfway through the open loop, and
	// after the load. A group ends when setupReps set-ups went by without
	// the hypervisor stealing CPU time, or maxSetups were made. setup_s is
	// the median over all groups; the first group's last deployment serves
	// the load. A set-up takes milliseconds, so many cost little; the
	// groups spread them over the run, because the host's speed drifts
	// over seconds.
	setupReps = 6
	maxSetups = 15
	// warmup precedes measurement so connections, caches and the heap settle.
	warmup = 500 * time.Millisecond
	// lagBound makes a run invalid, with no result, when the open-loop
	// generator itself ran later than this at its 99th percentile.
	lagBound = 20 * time.Millisecond
	// runLimit aborts a run before the 180 s one run may take.
	runLimit = 170 * time.Second
	// sends is how often the open loop sends each of its jobs, in as
	// many passes over the same schedule. The shared host slows the
	// daemon and the generator in bursts, by a third or more in bad
	// minutes; a job's fastest send is its latency when no burst hit it,
	// so p50_ms, the median over jobs of that, follows the program, not
	// the host. More sends filter more but leave fewer distinct jobs:
	// at 4, walk_large still holds some 200 distinct batches.
	sends = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    uint64
	seconds int
	trace   bool
	adhocd  string
	runDir  string
	outDir  string
	keyPath string
	conns   int
	ctl     *http.Client
	tr      *tracer
	// genCPUs and daemonCPUs split the machine between this process and
	// the daemons (nil on a one-CPU machine).
	genCPUs, daemonCPUs *cpuMask

	mu   sync.Mutex
	live *deployment // stopped on every exit path
}

func main() {
	// The generator's own garbage collection would land in the measured
	// latencies; the runs are short enough to afford a larger heap.
	debug.SetGCPercent(400)
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the generated requests")
	seconds := fs.Int("seconds", 10, "measured seconds (closed loop then open loop)")
	traceOn := fs.Int("trace", 0, "1 = traced run printing the per-layer table")
	adhocd := fs.String("adhocd", "", "adhocd binary built from this tree")
	out := fs.String("out", ".bench_build", "directory for logs and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok || *adhocd == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (%s), --seconds >= 1, --trace 0|1 and -adhocd\n", workloadNames())
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1, adhocd: *adhocd,
		outDir: *out, conns: runtime.NumCPU()}
	b.runDir = filepath.Join(*out, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	b.genCPUs, b.daemonCPUs = cpuPlan()
	if b.genCPUs != nil {
		if err := pinProcess(b.genCPUs, 1); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
	}
	b.ctl = newClient(1)
	if b.trace {
		b.tr = newTracer()
	}
	stop := b.guard()
	defer stop()
	fmt.Printf("workload %s, seed %d: %s; open loop at %g jobs/s\n", w.name, b.seed, w.layer, w.rate)
	o, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	os.RemoveAll(b.runDir)
	line, _ := json.Marshal(o)
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// guard stops the live daemons on SIGINT/SIGTERM and when the run
// overruns runLimit; the returned func disarms it and stops them.
func (b *bench) guard() func() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	timer := time.NewTimer(runLimit)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintln(os.Stderr, "servebench: stopping on", s)
		case <-timer.C:
			fmt.Fprintln(os.Stderr, "servebench: run exceeded", runLimit)
		case <-done:
			return
		}
		b.setLive(nil)
		os.Exit(1)
	}()
	return func() {
		close(done)
		timer.Stop()
		signal.Stop(sigs)
		b.setLive(nil)
	}
}

// setLive records the serving deployment, stopping the previous one.
func (b *bench) setLive(dp *deployment) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.live != nil {
		b.live.stop(false)
	}
	b.live = dp
}

// phases of one run, kept for the report.
type phases struct {
	setups             []float64 // the ones the hypervisor stole nothing from
	allSetups          []float64
	warm, closed, open []result // open[i] is a send of open job i % jobs
	jobs               int
	lags               []time.Duration
	closedWin, openWin []window // host steal over each loop
	daemonCPU          float64  // daemon CPU seconds spent in the closed loop
	rssMB              float64
	scrapes            [3][]scrape // per phase boundary, per shard
	cpu                [3][]float64
	dp                 *deployment
}

func (b *bench) run() (*output, error) {
	w := b.w
	total := time.Duration(b.seconds) * time.Second
	closedDur := total * 15 / 100
	openDur := total - closedDur

	budgets, err := budgetsFor(w)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(w, b.seed)
	if err != nil {
		return nil, err
	}
	warmJobs := newJobGen(w, b.seed, 1, budgets).make(max(64, int(w.rate)))
	closedJobs := newJobGen(w, b.seed, 2, budgets).make(max(256, int(3*w.rate*closedDur.Seconds())))
	openJobs := newJobGen(w, b.seed, 3, budgets).make(int(w.rate * openDur.Seconds() / sends))
	schedule := make([]*job, 0, sends*len(openJobs))
	for range sends {
		schedule = append(schedule, openJobs...)
	}
	if err := b.writeKey(); err != nil {
		return nil, err
	}

	var ph phases
	ph.jobs = len(openJobs)
	dp, err := b.setUps(&ph)
	if err != nil {
		return nil, err
	}
	b.setLive(dp)
	ph.dp = dp
	rn := newRunner(dp.shards[dp.entry].addr, b.conns, b.tr)

	b.phaseSpan("warmup", func(id int64) {
		rn.phase = id
		ph.warm = rn.closedLoop(warmJobs, warmup)
	})
	if err := b.observe(dp, &ph, 0); err != nil {
		return nil, err
	}
	b.phaseSpan("closed_loop", func(id int64) {
		rn.phase = id
		stop := make(chan struct{})
		steal := sampleSteal(stop, peakWindow)
		cpu0 := b.daemonCPU(dp)
		ph.closed = rn.closedLoop(closedJobs, closedDur)
		ph.daemonCPU = b.daemonCPU(dp) - cpu0
		close(stop)
		ph.closedWin = windows(<-steal, peakWindow, runtime.NumCPU())
	})
	if err := b.observe(dp, &ph, 1); err != nil {
		return nil, err
	}
	if err := b.extraSetUps(&ph); err != nil {
		return nil, err
	}
	b.phaseSpan("open_loop", func(id int64) {
		rn.phase = id
		stop := make(chan struct{})
		steal := sampleSteal(stop, stealWindow)
		half := len(schedule) / 2
		ph.open, ph.lags = rn.openLoop(schedule[:half], w.rate, b.trace, len(w.pattern))
		err = b.extraSetUps(&ph)
		if err == nil {
			rest, lags := rn.openLoop(schedule[half:], w.rate, b.trace, len(w.pattern))
			ph.open, ph.lags = append(ph.open, rest...), append(ph.lags, lags...)
		}
		close(stop)
		ph.openWin = windows(<-steal, stealWindow, runtime.NumCPU())
	})
	if err != nil {
		return nil, err
	}
	if err := b.observe(dp, &ph, 2); err != nil {
		return nil, err
	}
	for _, d := range dp.shards {
		mb, err := procHWM(d.pid())
		if err != nil {
			return nil, err
		}
		ph.rssMB += mb
	}
	b.setLive(nil)
	if err := b.extraSetUps(&ph); err != nil {
		return nil, err
	}
	fmt.Printf("set-ups: %d made, %d steal-free; ms: %.2f\n", len(ph.allSetups), len(ph.setups), scaled(ph.allSetups, 1e3))

	all := slices.Concat(ph.warm, ph.closed, ph.open)
	if err := orc.check(all); err != nil {
		return nil, err
	}
	o := &output{Correct: orc.wrong == 0, Metrics: map[string]metric{}}
	var firstErr string
	for _, r := range all {
		o.Attempted += r.reqs
		o.Failed += r.fails
		if firstErr == "" {
			firstErr = r.firstError
		}
	}
	if firstErr != "" {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", firstErr)
	}
	for _, n := range orc.notes {
		fmt.Fprintln(os.Stderr, "servebench: wrong verdict:", n)
	}
	e2e, extra, err := endToEnd(&ph)
	if err != nil {
		return nil, err
	}
	extra["fail_ratio"] = metric{float64(o.Failed) / float64(max(o.Attempted, 1)), "ratio"}
	extra["wrong_verdicts"] = metric{float64(orc.wrong), "count"}
	printTable(os.Stdout, "end-to-end", e2e)
	printTable(os.Stdout, "alongside", extra)
	if !b.trace {
		for _, name := range endToEndNames {
			o.Metrics[name] = e2e[name]
		}
		return o, nil
	}
	layers, err := b.perLayer(&ph, openJobs, budgets, extra)
	if err != nil {
		return nil, err
	}
	printTable(os.Stdout, "per-layer", layers)
	for _, s := range b.tr.summary() {
		fmt.Printf("  span %-28s n=%-7d total=%-12v self=%v\n", s.Name, s.Count, s.Total.Round(time.Microsecond), s.Self.Round(time.Microsecond))
	}
	dump := filepath.Join(b.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return nil, err
	}
	if err := b.tr.write(dump); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", dump)
	o.Metrics = layers
	return o, nil
}

// setUps makes one group of set-ups, recording each one's time on ph, and
// returns the last deployment, still running; it stops the others.
func (b *bench) setUps(ph *phases) (*deployment, error) {
	var last *deployment
	for i, clean := 0, 0; i < maxSetups && clean < setupReps; i++ {
		if last != nil {
			last.stop(false)
			last = nil
		}
		stolen := hostSteal()
		t0 := time.Now()
		dp, err := b.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := (time.Since(t0) - dp.gossipWait).Seconds()
		if hostSteal() == stolen {
			ph.setups = append(ph.setups, d)
			clean++
		}
		ph.allSetups = append(ph.allSetups, d)
		last = dp
	}
	b.ctl.CloseIdleConnections()
	return last, nil
}

// extraSetUps makes one more group of set-ups beside the serving
// deployment, which it leaves alone.
func (b *bench) extraSetUps(ph *phases) error {
	dp, err := b.setUps(ph)
	if err != nil {
		return err
	}
	dp.stop(false)
	return nil
}

// endToEndNames are the metrics of the untraced run, in BENCHMARK.json.
var endToEndNames = []string{"setup_s", "p50_ms", "daemon_rss_mb"}

// endToEnd returns the bounded end-to-end metrics and, apart, the
// figures printed beside them: the open-loop tail over every send and the
// host's steal. A run whose generator lagged past lagBound measured the
// host, not the daemon: it gets no metrics.
func endToEnd(ph *phases) (e2e, extra map[string]metric, err error) {
	if lag := quantileDur(ph.lags, 0.99); lag > lagBound {
		return nil, nil, fmt.Errorf("invalid run: open-loop generator lag p99 %v exceeds %v; the host was too busy to measure latency", lag, lagBound)
	}
	best := fastestSends(ph.open, ph.jobs)
	all := latencies(ph.open)
	var stolen float64
	for _, w := range ph.openWin {
		stolen += w.stolen / float64(len(ph.openWin))
	}
	fmt.Printf("open loop: %d sends of %d jobs; host stole %.1f%% of CPU time\n", len(ph.open), ph.jobs, 100*stolen)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	e2e = map[string]metric{
		"setup_s":       {setupTime(ph), "s"},
		"p50_ms":        {ms(quantileDur(best, 0.5)), "ms"},
		"daemon_rss_mb": {ph.rssMB, "MiB"},
	}
	extra = map[string]metric{
		"bench.peak_rps":     {peakRate(ph.closed, ph.closedWin), "1/s"},
		"bench.p90_ms":       {ms(quantileDur(all, 0.9)), "ms"},
		"bench.p99_ms":       {ms(quantileDur(all, 0.99)), "ms"},
		"bench.all_p50_ms":   {ms(quantileDur(all, 0.5)), "ms"},
		"bench.steal_share":  {stolen, "ratio"},
		"bench.cpu_peak_rps": {float64(verdicts(ph.closed)) / ph.daemonCPU, "1/s"},
		"bench.lag_p99_ms":   {ms(quantileDur(ph.lags, 0.99)), "ms"},
		"bench.clean_setups": {float64(len(ph.setups)), "count"},
	}
	return e2e, extra, nil
}

// fastestSends returns, for each of the jobs open loop jobs, the latency
// of its fastest send; open[i] is a send of job i % jobs. A send that
// failed has no latency.
func fastestSends(open []result, jobs int) []time.Duration {
	best := make([]time.Duration, jobs)
	seen := make([]bool, jobs)
	for i := range open {
		r := &open[i]
		if r.fails > 0 {
			continue
		}
		k, l := i%jobs, r.latency()
		if !seen[k] || l < best[k] {
			best[k], seen[k] = l, true
		}
	}
	out := best[:0]
	for k, l := range best {
		if seen[k] {
			out = append(out, l)
		}
	}
	return out
}

// daemonCPU returns the CPU seconds the deployment's daemons used so far.
func (b *bench) daemonCPU(dp *deployment) float64 {
	var t float64
	for _, d := range dp.shards {
		if us, err := procCPU(d.pid()); err == nil {
			t += us / 1e6
		}
	}
	return t
}

func verdicts(rs []result) int {
	n := 0
	for i := range rs {
		if rs[i].fails == 0 {
			n += rs[i].j.verdicts()
		}
	}
	return n
}

// setupTime is the median of the steal-free set-ups, or of all of them
// when fewer than three were.
func setupTime(ph *phases) float64 {
	if len(ph.setups) >= 3 {
		return median(ph.setups)
	}
	return median(ph.allSetups)
}

func latencies(rs []result) []time.Duration {
	out := make([]time.Duration, 0, len(rs))
	for i := range rs {
		out = append(out, rs[i].latency())
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phaseSpan runs f as a root span named name; f gets the span's ID, under
// which the phase's jobs hang.
func (b *bench) phaseSpan(name string, f func(id int64)) {
	id := b.tr.begin()
	t0 := time.Now()
	f(id)
	b.tr.finish(id, name, 0, id, t0)
}

// observe scrapes every shard's /metrics and /proc CPU at phase boundary
// k (traced runs only).
func (b *bench) observe(dp *deployment, ph *phases, k int) error {
	if !b.trace {
		return nil
	}
	for _, d := range dp.shards {
		resp, err := b.ctl.Get(d.addr + "/metrics")
		if err != nil {
			return err
		}
		s, err := parseMetrics(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		cpu, err := procCPU(d.pid())
		if err != nil {
			return err
		}
		ph.scrapes[k] = append(ph.scrapes[k], s)
		ph.cpu[k] = append(ph.cpu[k], cpu)
	}
	return nil
}

// writeKey writes the cluster's shared resume-token key, drawn from -seed.
func (b *bench) writeKey() error {
	b.keyPath = filepath.Join(b.runDir, "cluster.key")
	sum := sha256.Sum256(fmt.Appendf(nil, "servebench-%d", b.seed))
	return os.WriteFile(b.keyPath, []byte(hex.EncodeToString(sum[:])), 0o600)
}

func printTable(f *os.File, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
