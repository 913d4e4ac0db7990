package main

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/degred"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/route"
	"repro/internal/token"
)

// The layer harness calls each layer's public functions in process on the
// workload's own specs, pairs and schedule, after the daemon has stopped,
// so nothing contends with it. A workload times only the layers it
// serves; the others read 0 in its table (say, dynamic worlds on
// route_small).

const (
	layerOps    = 3000                    // cap on calls per timed loop
	layerBudget = 1500 * time.Millisecond // cap on wall time per timed loop
	compileReps = 3
)

// layerRun carries one harness pass.
type layerRun struct {
	w      *workload
	seed   uint64
	tr     *tracer
	root   int64
	out    map[string]float64
	reg    *registry.Registry
	engs   map[int]*engine.Engine // by network index, -1 = boot
	graphs map[int]*graph.Graph
}

// timed runs f under a span named name and returns its duration.
func (lr *layerRun) timed(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	lr.tr.record(name, lr.root, lr.root, t0, d)
	return d
}

// loop calls f for i = 0, 1, ... while i < n, the op cap and the time cap
// allow, and returns how many calls ran.
func loop(n int, f func(i int)) int {
	deadline := time.Now().Add(layerBudget)
	i := 0
	for ; i < n && i < layerOps && (i%16 != 0 || time.Now().Before(deadline)); i++ {
		f(i)
	}
	return i
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// quantileDur is the nearest-rank q-quantile of ds.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

// measureLayers runs the harness and returns the per-layer table,
// including engine.us_per_request: the in-process engine time the served
// request mix costs per request.
func measureLayers(w *workload, seed uint64, jobs []*job, budgets []int64, tr *tracer) (map[string]float64, error) {
	lr := &layerRun{w: w, seed: seed, tr: tr, out: map[string]float64{},
		engs: map[int]*engine.Engine{}, graphs: map[int]*graph.Graph{}}
	lr.root = tr.begin()
	start := time.Now()
	defer func() { tr.finish(lr.root, "layers", 0, lr.root, start) }()

	for i := -1; i < len(w.nets); i++ {
		g, err := buildGraph(w.netSpec(i))
		if err != nil {
			return nil, err
		}
		lr.graphs[i] = g
	}
	if err := lr.registry(); err != nil {
		return nil, err
	}
	if err := lr.degred(); err != nil {
		return nil, err
	}
	boot, err := engine.Compile(lr.graphs[-1], engine.Config{Seed: bootSeed})
	if err != nil {
		return nil, err
	}
	lr.engs[-1] = boot
	var cost requestCost
	if err := lr.engine(jobs, &cost); err != nil {
		return nil, err
	}
	if err := lr.budgeted(jobs, budgets, &cost); err != nil {
		return nil, err
	}
	if err := lr.dynamic(jobs, &cost); err != nil {
		return nil, err
	}
	if w.shards > 1 {
		lr.cluster()
	}
	lr.out["engine.us_per_request"] = cost.perRequest(jobs)
	return lr.out, nil
}

// registry times Obtain misses (a fresh registry per rep) and hits.
func (lr *layerRun) registry() error {
	var miss time.Duration
	for _, spec := range lr.w.nets {
		var ds []time.Duration
		for r := 0; r < compileReps; r++ {
			reg := registry.New(registry.Config{})
			var err error
			ds = append(ds, lr.timed("registry.obtain_miss", func() { _, _, err = reg.Obtain(spec) }))
			if err != nil {
				return err
			}
			lr.reg = reg
		}
		miss += medianDur(ds)
	}
	lr.out["registry.compile_ms"] = float64(miss) / float64(time.Millisecond)
	for i, spec := range lr.w.nets {
		ent, ok := lr.reg.Get(spec.ID())
		if !ok {
			// The last rep's registry holds only the last spec.
			var err error
			if ent, _, err = lr.reg.Obtain(spec); err != nil {
				return err
			}
		}
		lr.engs[i] = ent.Eng
	}
	spec := lr.w.nets[0]
	t0 := time.Now()
	n := loop(layerOps, func(int) { lr.reg.Obtain(spec) })
	d := time.Since(t0)
	lr.tr.record("registry.obtain_hit", lr.root, lr.root, t0, d)
	lr.out["registry.hit_us"] = us(d) / float64(n)
	return nil
}

// degred times the Figure 1 degree reduction of every served network.
func (lr *layerRun) degred() error {
	var total time.Duration
	for i := -1; i < len(lr.w.nets); i++ {
		var ds []time.Duration
		for r := 0; r < compileReps; r++ {
			var err error
			ds = append(ds, lr.timed("degred.reduce", func() { _, err = degred.Reduce(lr.graphs[i]) }))
			if err != nil {
				return err
			}
		}
		total += medianDur(ds)
	}
	lr.out["degred.reduce_ms"] = float64(total) / float64(time.Millisecond)
	return nil
}

// requestCost is the in-process engine time of each served request shape.
type requestCost struct {
	route, batch, segment, dynRoute time.Duration
	segments                        float64 // requests per budgeted walk
}

// perRequest weights the request shapes by how often the served jobs sent
// each: the engine's share of one served request.
func (c requestCost) perRequest(jobs []*job) float64 {
	var total time.Duration
	var reqs float64
	for _, j := range jobs {
		switch j.kind {
		case bootRoute, netRoute:
			total += c.route
			reqs++
		case netBatch:
			total += c.batch
			reqs++
		case netBudget:
			total += time.Duration(c.segments * float64(c.segment))
			reqs += c.segments
		case worldRoute:
			total += c.dynRoute
			reqs++
		}
	}
	if reqs == 0 {
		return 0
	}
	return us(total) / reqs
}

// engine times the served single routes and batches on the static engine.
func (lr *layerRun) engine(jobs []*job, cost *requestCost) error {
	var nets []int
	var ps [][2]int64
	var batches [][]engine.Pair
	var batchNet []int
	for _, j := range jobs {
		switch j.kind {
		case bootRoute, netRoute:
			nets = append(nets, j.net)
			ps = append(ps, j.pairs[0])
		case netBatch:
			batches = append(batches, toPairs(j.pairs))
			batchNet = append(batchNet, j.net)
		}
	}
	if err := lr.routes(nets, ps, cost); err != nil {
		return err
	}
	var bt time.Duration
	var members int
	nb := loop(len(batches), func(i int) {
		bt += lr.timed("engine.route_batch", func() {
			lr.engs[batchNet[i]].RouteBatch(context.Background(), batches[i])
		})
		members += len(batches[i])
	})
	if nb > 0 {
		lr.out["engine.batch_us_per_pair"] = us(bt) / float64(members)
		cost.batch = bt / time.Duration(nb)
	}
	return nil
}

// routes times single routes of the pairs ps, each on network nets[i].
func (lr *layerRun) routes(nets []int, ps [][2]int64, cost *requestCost) error {
	var ds []time.Duration
	var hops, rounds, certs int64
	var total time.Duration
	var err error
	n := loop(len(ps), func(i int) {
		eng := lr.engs[nets[i]]
		t0 := time.Now()
		res, err2 := eng.Route(graph.NodeID(ps[i][0]), graph.NodeID(ps[i][1]))
		d := time.Since(t0)
		lr.tr.record("engine.route", lr.root, lr.root, t0, d)
		if err2 != nil {
			err = err2
			return
		}
		ds = append(ds, d)
		total += d
		hops += res.Hops
		rounds += int64(len(res.Rounds))
		if res.Certificate != nil {
			certs++
		}
	})
	if err != nil || n == 0 {
		return err
	}
	lr.out["engine.route_us_p50"] = us(quantileDur(ds, 0.5))
	lr.out["engine.route_us_p99"] = us(quantileDur(ds, 0.99))
	lr.out["engine.certificate_ratio"] = float64(certs) / float64(n)
	lr.out["route.hops_per_query"] = float64(hops) / float64(n)
	lr.out["route.rounds_per_query"] = float64(rounds) / float64(n)
	lr.out["flatgraph.ns_per_hop"] = float64(total) / float64(max(hops, 1))
	cost.route = total / time.Duration(n)

	// Allocations are deterministic per query: count them over a replay
	// of the first queries, with nothing else running.
	m := min(n, 500)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < m; i++ {
		lr.engs[nets[i]].Route(graph.NodeID(ps[i][0]), graph.NodeID(ps[i][1]))
	}
	runtime.ReadMemStats(&after)
	lr.out["engine.allocs_per_route"] = float64(after.Mallocs-before.Mallocs) / float64(m)
	return nil
}

func toPairs(ps [][2]int64) []engine.Pair {
	out := make([]engine.Pair, len(ps))
	for i, p := range ps {
		out[i] = engine.Pair{Src: graph.NodeID(p[0]), Dst: graph.NodeID(p[1])}
	}
	return out
}

// budgeted drives budgeted walks to a verdict through signed resume
// tokens, as a client of a budgeted route does.
func (lr *layerRun) budgeted(jobs []*job, budgets []int64, cost *requestCost) error {
	net := 0
	var ps [][2]int64
	for _, j := range jobs {
		if j.kind == netBudget {
			net = j.net
			ps = append(ps, j.pairs...)
		}
	}
	if len(ps) == 0 {
		return nil
	}
	eng := lr.engs[net]
	budget := budgets[net]
	signer := token.NewSigner([]byte("servebench-layer-harness-key-0123"))
	scope := "net:" + lr.w.nets[net].ID()
	var segs, queries int
	var sign, verify, walk []time.Duration
	var err error
	ctx := context.Background()
	loop(len(ps), func(i int) {
		s, t := graph.NodeID(ps[i][0]), graph.NodeID(ps[i][1])
		var cur *route.Cursor
		for seg := 0; seg < maxSegments; seg++ {
			var res *route.Result
			walk = append(walk, lr.timed("engine.route_budgeted", func() {
				res, err = eng.RouteBudgeted(ctx, s, t, budget, cur)
			}))
			if err != nil {
				return
			}
			segs++
			if res.Exhausted == "" {
				break
			}
			var tok string
			sign = append(sign, lr.timed("token.sign", func() { tok, err = signer.Sign(scope, res.Cursor) }))
			if err != nil {
				return
			}
			verify = append(verify, lr.timed("token.verify", func() { cur, err = signer.Verify(scope, tok) }))
			if err != nil {
				return
			}
		}
		queries++
	})
	if err != nil {
		return err
	}
	lr.out["route.resume_segments_per_query"] = float64(segs) / float64(max(queries, 1))
	lr.out["token.sign_us"] = us(meanDur(sign))
	lr.out["token.verify_us"] = us(meanDur(verify))
	cost.segment = meanDur(walk) + meanDur(sign) + meanDur(verify)
	cost.segments = lr.out["route.resume_segments_per_query"]
	return nil
}

// dynamic replays the world traffic in process: advances with their
// recompile, and frozen-clock routes, in the served order.
func (lr *layerRun) dynamic(jobs []*job, cost *requestCost) error {
	if lr.w.world == nil {
		return nil
	}
	sched, err := lr.w.worldSpec(lr.seed).Build()
	if err != nil {
		return err
	}
	eng := lr.engs[0]
	world := eng.NewWorld(sched)
	ops := jobs
	var adv, rec, routes []time.Duration
	var rounds, aborted int
	cfg := dynamic.Config{HopsPerEpoch: -1}
	loop(len(ops), func(i int) {
		if err != nil {
			return
		}
		switch j := ops[i]; j.kind {
		case worldAdvance:
			adv = append(adv, lr.timed("dynamic.advance", func() { err = world.Advance(dynamic.Probe{}) }))
			if err == nil {
				rec = append(rec, lr.timed("dynamic.recompile", func() { _, _, err = world.Compiled() }))
			}
		case worldRoute:
			var res *dynamic.Result
			p := j.pairs[0]
			routes = append(routes, lr.timed("dynamic.route", func() {
				res, err = eng.RouteDynamic(world, graph.NodeID(p[0]), graph.NodeID(p[1]), cfg)
			}))
			if err == nil {
				rounds += res.Rounds
				aborted += res.AbortedRounds
			}
		}
	})
	if err != nil {
		return err
	}
	snap := world.Snapshot()
	lr.out["dynamic.advance_us"] = us(meanDur(adv))
	lr.out["dynamic.recompile_us"] = us(meanDur(rec))
	lr.out["dynamic.delta_ratio"] = float64(snap.DeltaRecompiles) / float64(max(snap.Recompiles, 1))
	lr.out["dynamic.route_us_p50"] = us(quantileDur(routes, 0.5))
	lr.out["dynamic.route_us_p99"] = us(quantileDur(routes, 0.99))
	lr.out["dynamic.aborted_round_ratio"] = float64(aborted) / float64(max(rounds, 1))
	cost.dynRoute = meanDur(routes)
	return nil
}

// cluster times a placement lookup on a two-shard ring.
func (lr *layerRun) cluster() {
	ring := cluster.BuildRing([]cluster.PeerState{
		{Name: "shard-0", Addr: "http://127.0.0.1:1", Status: cluster.StatusAlive},
		{Name: "shard-1", Addr: "http://127.0.0.1:2", Status: cluster.StatusAlive},
	}, cluster.DefaultVnodes)
	keys := make([]string, 0, len(lr.w.nets)+1)
	for _, s := range lr.w.nets {
		keys = append(keys, "net:"+s.ID())
	}
	keys = append(keys, "world:"+worldName)
	sort.Strings(keys)
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ring.Owner(keys[i%len(keys)])
	}
	d := time.Since(t0)
	lr.tr.record("cluster.owner", lr.root, lr.root, t0, d)
	lr.out["cluster.owner_ns"] = float64(d) / n
}

// budgetsFor returns, per registered network, the budget_hops that splits
// a median walk into about four segments, from a fixed pair sample so it
// does not depend on -seed.
func budgetsFor(w *workload) ([]int64, error) {
	out := make([]int64, len(w.nets))
	for i, spec := range w.nets {
		g, err := buildGraph(spec)
		if err != nil {
			return nil, err
		}
		eng, err := engine.Compile(g, engine.Config{Seed: spec.Seed, KnownBound: spec.KnownBound})
		if err != nil {
			return nil, err
		}
		gen := newJobGen(w, 12345, 0, nil)
		var hops []int64
		for k := 0; k < 64; k++ {
			p := gen.pair(i)
			res, err := eng.Route(graph.NodeID(p[0]), graph.NodeID(p[1]))
			if err != nil {
				return nil, err
			}
			hops = append(hops, res.Hops)
		}
		slices.Sort(hops)
		out[i] = max(1, (hops[len(hops)/2]+3)/4)
	}
	return out, nil
}
