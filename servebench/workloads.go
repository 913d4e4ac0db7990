package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/dynamic"
	"repro/internal/registry"
)

// jobKind is one client action. A job is what one arrival asks for; it
// yields one verdict, except a batch, which yields batchSize.
type jobKind uint8

const (
	bootRoute    jobKind = iota // POST /v1/route on the boot network
	netRoute                    // POST /v1/networks/{id}/route
	netBatch                    // POST /v1/networks/{id}/batch with batchSize pairs
	netBudget                   // budgeted route on a registered network, resumed to a verdict
	worldRoute                  // POST /v1/worlds/{id}/route with the epoch clock frozen
	worldAdvance                // POST /v1/worlds/{id}/advance {"epochs":1}
)

func (k jobKind) String() string {
	return [...]string{"boot_route", "net_route", "net_batch", "net_budget", "world_route", "world_advance"}[k]
}

const (
	batchSize = 16
	worldName = "churn"
	// bootSeed is the protocol seed the daemon serves its boot network
	// with (adhocd -seed); registered specs carry their own.
	bootSeed = 7
)

// slot is one position of a workload's repeating request pattern.
type slot struct {
	kind jobKind
	net  int // index into workload.nets; -1 is the boot network
}

// workload is one traffic mix. Networks, schedule parameters and the
// request pattern are fixed here; -seed draws the node pairs, the world's
// schedule seed and the daemon's token key.
type workload struct {
	name   string
	why    string
	layer  string
	boot   registry.Spec   // served via adhocd -gen; Seed is bootSeed
	nets   []registry.Spec // registered with POST /v1/networks
	world  *dynamic.Spec   // named shared world over nets[0]
	shards int
	// rate is the open-loop arrival rate (jobs/s), a tenth (walk_large:
	// a fifth) of the closed-loop peak the parent commit of this
	// benchmark sustained: the shared host can take half the CPU away,
	// and the open loop must not saturate when it does.
	rate    float64
	pattern []slot
}

var (
	bootGrid  = registry.Spec{Kind: "grid", Rows: 6, Cols: 6, Seed: bootSeed}
	smallUDG  = registry.Spec{Kind: "udg2d", N: 64, Radius: 0.15, GenSeed: 4}
	largeGrid = registry.Spec{Kind: "grid", Rows: 32, Cols: 32}
	churnTor  = registry.Spec{Kind: "torus", Rows: 16, Cols: 16}
)

func repeat(s slot, n int) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func concat(parts ...[]slot) []slot {
	var out []slot
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var workloads = []*workload{
	{
		name:   "route_small",
		why:    "6x6 boot grid plus a multi-component udg2d: walks take microseconds, so handler and loopback transport dominate",
		layer:  "HTTP handler and loopback transport",
		boot:   bootGrid,
		nets:   []registry.Spec{smallUDG},
		shards: 1,
		rate:   800,
		pattern: concat(repeat(slot{bootRoute, -1}, 8),
			repeat(slot{netRoute, 0}, 2)),
	},
	{
		name:   "walk_large",
		why:    "32x32 grid: single, batch-16 and budgeted-resumed walks of ~1000s of hops, so the walk kernel dominates",
		layer:  "engine walk (flatgraph, route, token resume)",
		boot:   bootGrid,
		nets:   []registry.Spec{largeGrid},
		shards: 1,
		rate:   40,
		// Batches, each a sum of 16 walks, are four in five jobs, so the
		// median job is a batch: it sits where batches are dense, not
		// between the kinds' modes, and a seed's pairs move it little.
		pattern: concat(repeat(slot{netBatch, 0}, 8),
			repeat(slot{netRoute, 0}, 1),
			repeat(slot{netBudget, 0}, 1)),
	},
	{
		name:   "world_churn",
		why:    "16x16 torus world under Markov link churn: frozen-clock routes and 1 advance per 10 reads share one dynamic.World",
		layer:  "dynamic world: advance, delta recompile, dynamic route",
		boot:   bootGrid,
		nets:   []registry.Spec{churnTor},
		world:  &dynamic.Spec{Kind: "markov", PDown: 0.01, PUp: 0.3},
		shards: 1,
		rate:   250,
		pattern: concat(repeat(slot{worldRoute, 0}, 10),
			repeat(slot{worldAdvance, 0}, 1)),
	},
	{
		name:    "cluster_hop",
		why:     "two -cluster shards; udg2d routes sent to the shard that does not own the network, so each pays one forward",
		layer:   "cluster forward",
		boot:    bootGrid,
		nets:    []registry.Spec{smallUDG},
		shards:  2,
		rate:    300,
		pattern: repeat(slot{netRoute, 0}, 1),
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// specNodes is the node count of a generator spec: nodes are 0..n-1.
func specNodes(s registry.Spec) int {
	switch s.Kind {
	case "grid", "torus":
		return s.Rows * s.Cols
	default:
		return s.N
	}
}

// bootArgs are the adhocd flags that serve w.boot.
func (w *workload) bootArgs() []string {
	return []string{"-gen", w.boot.Kind,
		"-rows", strconv.Itoa(w.boot.Rows), "-cols", strconv.Itoa(w.boot.Cols),
		"-seed", strconv.FormatUint(w.boot.Seed, 10)}
}

// netSpec returns the spec of network index i (-1 = boot).
func (w *workload) netSpec(i int) registry.Spec {
	if i < 0 {
		return w.boot
	}
	return w.nets[i]
}

// worldSpec is the world's schedule with its seed drawn from -seed.
func (w *workload) worldSpec(seed uint64) dynamic.Spec {
	s := *w.world
	s.Seed = seed%1000 + 1
	return s
}

// job is one pre-rendered arrival.
type job struct {
	kind  jobKind
	net   int
	pairs [][2]int64
	path  string
	body  []byte
	// budget is the per-segment hop budget of a netBudget job.
	budget int64
}

// verdicts is how many verdicts the job yields when it completes.
func (j *job) verdicts() int {
	switch j.kind {
	case worldAdvance:
		return 0
	case netBatch:
		return len(j.pairs)
	default:
		return 1
	}
}

// jobGen draws jobs deterministically from a seed.
type jobGen struct {
	w      *workload
	rng    *rand.Rand
	budget []int64 // per registered network: budget_hops of netBudget jobs
	next   int
}

func newJobGen(w *workload, seed, stream uint64, budget []int64) *jobGen {
	return &jobGen{w: w, rng: rand.New(rand.NewPCG(seed, stream)), budget: budget}
}

func (g *jobGen) pair(net int) [2]int64 {
	n := int64(specNodes(g.w.netSpec(net)))
	s := g.rng.Int64N(n)
	t := g.rng.Int64N(n - 1)
	if t >= s {
		t++
	}
	return [2]int64{s, t}
}

func (g *jobGen) make(n int) []*job {
	out := make([]*job, n)
	for i := range out {
		sl := g.w.pattern[g.next%len(g.w.pattern)]
		g.next++
		out[i] = g.job(sl)
	}
	return out
}

func netPath(spec registry.Spec, op string) string {
	return "/v1/networks/" + spec.ID() + "/" + op
}

func (g *jobGen) job(sl slot) *job {
	j := &job{kind: sl.kind, net: sl.net}
	switch sl.kind {
	case bootRoute, netRoute:
		p := g.pair(sl.net)
		j.pairs = [][2]int64{p}
		j.path = "/v1/route"
		if sl.kind == netRoute {
			j.path = netPath(g.w.netSpec(sl.net), "route")
		}
		j.body = fmt.Appendf(nil, `{"src":%d,"dst":%d}`, p[0], p[1])
	case netBatch:
		j.path = netPath(g.w.netSpec(sl.net), "batch")
		j.body = append(j.body, `{"pairs":[`...)
		for i := 0; i < batchSize; i++ {
			p := g.pair(sl.net)
			j.pairs = append(j.pairs, p)
			if i > 0 {
				j.body = append(j.body, ',')
			}
			j.body = fmt.Appendf(j.body, "[%d,%d]", p[0], p[1])
		}
		j.body = append(j.body, "]}"...)
	case netBudget:
		p := g.pair(sl.net)
		j.pairs = [][2]int64{p}
		j.path = netPath(g.w.netSpec(sl.net), "route")
		j.budget = g.budget[sl.net]
		j.body = fmt.Appendf(nil, `{"src":%d,"dst":%d,"budget_hops":%d}`, p[0], p[1], j.budget)
	case worldRoute:
		p := g.pair(sl.net)
		j.pairs = [][2]int64{p}
		j.path = "/v1/worlds/" + worldName + "/route"
		j.body = fmt.Appendf(nil, `{"src":%d,"dst":%d,"hops_per_epoch":-1}`, p[0], p[1])
	case worldAdvance:
		j.path = "/v1/worlds/" + worldName + "/advance"
		j.body = []byte(`{"epochs":1}`)
	}
	return j
}

// resumeBody renders the next segment of a budgeted walk.
func (j *job) resumeBody(tok string) []byte {
	return fmt.Appendf(nil, `{"src":%d,"dst":%d,"budget_hops":%d,"resume":%q}`,
		j.pairs[0][0], j.pairs[0][1], j.budget, tok)
}
