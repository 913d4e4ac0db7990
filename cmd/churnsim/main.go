// Command churnsim sweeps churn rate × mobility speed over a unit-disk
// network and reports how guaranteed-delivery routing behaves when the
// topology evolves mid-walk: delivery rate, slowdown versus the static
// route on the initial snapshot, and the dynamics bill (epochs,
// recompiles, header migrations).
//
// Usage:
//
//	churnsim -n 48 -radius 0.3 -churn 0,0.02,0.05 -speeds 0,0.01,0.04 -reps 20
//	churnsim -quick -csv
//
// Each sweep cell composes random-waypoint mobility (re-deriving the
// unit-disk topology from moving positions every epoch) with Bernoulli
// link fading at the given per-edge drop probability, then routes between
// random initially-connected pairs. Verdicts are audited against the
// decision-time BFS oracle: a failure verdict with the pair still
// connected is a correctness bug and aborts the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
	"repro/internal/route"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "churnsim:", err)
		os.Exit(1)
	}
}

// sweepConfig parameterizes one sweep.
type sweepConfig struct {
	n            int
	radius       float64
	genSeed      uint64
	seed         uint64
	churns       []float64
	speeds       []float64
	reps         int
	hopsPerEpoch int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("churnsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 48, "node count of the base unit-disk network")
		radius   = fs.Float64("radius", 0.3, "unit-disk connectivity radius")
		genSeed  = fs.Uint64("gen-seed", 1, "placement seed")
		seed     = fs.Uint64("seed", 7, "protocol + dynamics seed")
		churnsF  = fs.String("churn", "0,0.02,0.05", "comma-separated per-edge drop probabilities per epoch")
		speedsF  = fs.String("speeds", "0,0.01,0.04", "comma-separated mobility speeds (distance per epoch)")
		reps     = fs.Int("reps", 20, "routes per sweep cell")
		perEpoch = fs.Int("hops-per-epoch", 32, "message hops between epochs")
		quick    = fs.Bool("quick", false, "tiny sweep for smoke runs")
		csv      = fs.Bool("csv", false, "emit CSV instead of Markdown")
		nodesF   = fs.String("nodes", "", "comma-separated world sizes: run the delta-vs-full recompile scaling sweep instead of the churn sweep")
		scEpochs = fs.Int("scale-epochs", 30, "churned epochs per world size in the -nodes sweep")
		diff     = fs.Float64("diff", 8, "target topology diff (edge events per epoch) in the -nodes sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodesF != "" {
		sizes, err := parseInts(*nodesF)
		if err != nil {
			return fmt.Errorf("-nodes: %w", err)
		}
		table, err := scaleSweep(sizes, *scEpochs, *diff, *seed)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(out, table.CSV())
		} else {
			fmt.Fprint(out, table.Markdown())
		}
		return nil
	}
	cfg := sweepConfig{
		n: *n, radius: *radius, genSeed: *genSeed, seed: *seed,
		reps: *reps, hopsPerEpoch: *perEpoch,
	}
	var err error
	if cfg.churns, err = parseFloats(*churnsF); err != nil {
		return fmt.Errorf("-churn: %w", err)
	}
	if cfg.speeds, err = parseFloats(*speedsF); err != nil {
		return fmt.Errorf("-speeds: %w", err)
	}
	if *quick {
		cfg.n, cfg.reps = 24, 6
		cfg.churns, cfg.speeds = []float64{0, 0.05}, []float64{0, 0.03}
	}
	table, err := sweep(cfg)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Fprint(out, table.CSV())
	} else {
		fmt.Fprint(out, table.Markdown())
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if v < 4 {
			return nil, fmt.Errorf("world size %d too small", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

// scaleStats is one -nodes sweep cell: a torus world of ~n nodes churned
// for a fixed number of epochs under a size-independent diff rate, with
// identical twin worlds compiled through the delta path and through forced
// full rebuilds.
type scaleStats struct {
	nodes, links  int
	epochs        int
	meanDiff      float64 // journaled edge events per recompiled epoch
	deltaRebuilds int64
	totalRebuilds int64
	deltaMeanUS   float64 // mean delta-path recompile, µs
	fullMeanUS    float64 // mean full-rebuild recompile, µs
}

// scaleCell churns twin worlds of ~n nodes for the given epochs and
// measures recompile cost on each compile path. The churn rate is scaled
// so the per-epoch diff stays near diffTarget edge events regardless of
// world size — the point of the sweep is that delta cost tracks the diff,
// not the world.
func scaleCell(n, epochs int, diffTarget float64, seed uint64) (scaleStats, error) {
	side := int(math.Sqrt(float64(n)))
	base := gen.Torus(side, side)
	links := base.NumEdges()
	sched := func() dynamic.Schedule {
		return &dynamic.EdgeChurn{
			Seed:    seed,
			PDrop:   diffTarget / 2 / float64(links),
			AddRate: diffTarget / 2,
		}
	}
	wd := dynamic.NewWorld(base, sched())
	wf := dynamic.NewWorld(base, sched())
	wf.SetDeltaCompilation(false)
	st := scaleStats{nodes: side * side, links: links, epochs: epochs}
	diffSum := 0
	for e := 0; e < epochs; e++ {
		if err := wd.Advance(dynamic.Probe{}); err != nil {
			return st, err
		}
		if err := wf.Advance(dynamic.Probe{}); err != nil {
			return st, err
		}
		if j := wd.Graph().Journal(); j != nil {
			diffSum += j.Len()
		}
		if _, _, err := wd.Compiled(); err != nil {
			return st, err
		}
		if _, _, err := wf.Compiled(); err != nil {
			return st, err
		}
	}
	sd, sf := wd.Snapshot(), wf.Snapshot()
	st.meanDiff = float64(diffSum) / float64(epochs)
	st.deltaRebuilds, st.totalRebuilds = sd.DeltaRecompiles, sd.Recompiles
	if sd.DeltaRecompiles > 0 {
		st.deltaMeanUS = float64(sd.DeltaRecompileTime.Microseconds()) / float64(sd.DeltaRecompiles)
	}
	if sf.FullRecompiles > 0 {
		st.fullMeanUS = float64(sf.FullRecompileTime.Microseconds()) / float64(sf.FullRecompiles)
	}
	return st, nil
}

// scaleSweep runs scaleCell per requested world size and renders the
// recompile-cost scaling table.
func scaleSweep(sizes []int, epochs int, diffTarget float64, seed uint64) (*exp.Table, error) {
	t := &exp.Table{
		ID:     "SCALE",
		Title:  "epoch recompile cost vs world size at fixed topology diff (delta vs full path)",
		Anchor: "compile pipeline: O(diff) journal/delta recompiles vs O(graph) full reductions",
		Columns: []string{"nodes", "links", "epochs", "mean diff", "delta path",
			"delta µs", "full µs", "speedup"},
	}
	for _, n := range sizes {
		st, err := scaleCell(n, epochs, diffTarget, seed)
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", n, err)
		}
		speedup := "n/a"
		if st.deltaMeanUS > 0 {
			speedup = fmt.Sprintf("%.1f×", st.fullMeanUS/st.deltaMeanUS)
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(st.nodes),
			strconv.Itoa(st.links),
			strconv.Itoa(st.epochs),
			fmt.Sprintf("%.1f", st.meanDiff),
			fmt.Sprintf("%d/%d", st.deltaRebuilds, st.totalRebuilds),
			fmt.Sprintf("%.0f", st.deltaMeanUS),
			fmt.Sprintf("%.0f", st.fullMeanUS),
			speedup,
		})
	}
	t.AddNote("Twin worlds run the identical schedule; one compiles via the journal/delta path, the other is forced through full rebuilds.")
	t.AddNote("Churn probability is scaled inversely with link count so the per-epoch diff stays flat while the world grows.")
	return t, nil
}

// sweep runs the full churn × speed grid and renders one table.
func sweep(cfg sweepConfig) (*exp.Table, error) {
	t := &exp.Table{
		ID:     "CHURN",
		Title:  "delivery under live topology change (churn × mobility sweep)",
		Anchor: "§1.1 static-network assumption, relaxed mid-walk; resumption per the obliviousness argument",
		Columns: []string{"churn p", "speed", "routes", "delivered", "delivery rate",
			"median slowdown", "mean epochs", "recompiles", "resumptions", "aborted rounds"},
	}
	geo := gen.UDG2D(cfg.n, cfg.radius, cfg.genSeed)
	static, err := route.New(geo.G, route.Config{Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	pairs, err := connectedPairs(geo.G, cfg.reps, cfg.seed^0xa11ce)
	if err != nil {
		return nil, err
	}
	// The static baseline is deterministic per pair and shared by every
	// sweep cell, so compute it once up front.
	baseHops := make([]int64, len(pairs))
	for i, pair := range pairs {
		base, err := static.Route(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		if base.Status == netsim.StatusSuccess {
			baseHops[i] = base.Hops
		}
	}
	for _, churn := range cfg.churns {
		for _, speed := range cfg.speeds {
			cell, err := runCell(cfg, geo, pairs, baseHops, churn, speed)
			if err != nil {
				return nil, fmt.Errorf("cell churn=%g speed=%g: %w", churn, speed, err)
			}
			t.Rows = append(t.Rows, cell)
		}
	}
	t.AddNote("Slowdown is dynamic hops / static hops on the initial snapshot, over pairs delivered by both.")
	t.AddNote("Failure verdicts are audited against the decision-time BFS oracle; the sweep aborts on any wrong verdict.")
	return t, nil
}

// connectedPairs samples reps (s,t) pairs connected in g.
func connectedPairs(g *graph.Graph, reps int, seed uint64) ([][2]graph.NodeID, error) {
	nodes := g.Nodes()
	src := prng.New(seed)
	var out [][2]graph.NodeID
	for try := 0; len(out) < reps && try < reps*50; try++ {
		s := nodes[src.Intn(len(nodes))]
		t := nodes[src.Intn(len(nodes))]
		if s == t {
			continue
		}
		if _, ok := g.BFSDist(s)[t]; ok {
			out = append(out, [2]graph.NodeID{s, t})
		}
	}
	if len(out) < reps {
		return nil, fmt.Errorf("could not sample %d connected pairs (graph too fragmented?)", reps)
	}
	return out, nil
}

// runCell routes every pair once under the cell's schedule. baseHops[i]
// is pair i's precomputed static hop count (0 if the static route did not
// succeed).
func runCell(cfg sweepConfig, geo *gen.Geometric,
	pairs [][2]graph.NodeID, baseHops []int64, churn, speed float64) ([]string, error) {
	var (
		delivered  int
		slowdowns  []int64 // slowdown ×1000, for exp.Median
		epochs     int
		recompiles int
		resumed    int
		aborted    int
	)
	for i, pair := range pairs {
		sched := dynamic.Compose{
			&dynamic.RandomWaypoint{
				Seed: cfg.seed + uint64(i)*0x9e37, SpeedMin: speed / 2, SpeedMax: speed,
				Radius: cfg.radius,
			},
			&dynamic.EdgeChurn{Seed: cfg.seed ^ uint64(i)<<8, PDrop: churn},
		}
		w := dynamic.NewWorld(geo.G, sched)
		w.SetPositions(geo.Pos)
		res, err := dynamic.NewRouter(w, dynamic.Config{
			Seed: cfg.seed, HopsPerEpoch: cfg.hopsPerEpoch,
		}, nil).Route(pair[0], pair[1])
		if errors.Is(err, dynamic.ErrRoundsExhausted) {
			aborted += res.AbortedRounds
			continue // no verdict: counts against the delivery rate
		}
		if err != nil {
			return nil, err
		}
		epochs += res.Epochs
		recompiles += res.Recompiles
		resumed += res.Resumptions
		aborted += res.AbortedRounds
		switch res.Status {
		case netsim.StatusSuccess:
			delivered++
			if baseHops[i] > 0 {
				slowdowns = append(slowdowns, res.Hops*1000/baseHops[i])
			}
		case netsim.StatusFailure:
			if _, reachable := w.Graph().BFSDist(pair[0])[pair[1]]; reachable {
				return nil, fmt.Errorf("wrong verdict: failure for %v while oracle says reachable", pair)
			}
		}
	}
	medSlow := "n/a"
	if len(slowdowns) > 0 {
		medSlow = fmt.Sprintf("%.2f×", float64(exp.Median(slowdowns))/1000)
	}
	return []string{
		fmt.Sprintf("%g", churn),
		fmt.Sprintf("%g", speed),
		strconv.Itoa(len(pairs)),
		strconv.Itoa(delivered),
		fmt.Sprintf("%.0f%%", 100*float64(delivered)/float64(len(pairs))),
		medSlow,
		fmt.Sprintf("%.1f", float64(epochs)/float64(len(pairs))),
		strconv.Itoa(recompiles),
		strconv.Itoa(resumed),
		strconv.Itoa(aborted),
	}, nil
}
