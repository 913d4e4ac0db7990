package main

import (
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/registry"
)

// The oracle decides every verdict the daemon returns without asking the
// daemon: static networks are rebuilt from their spec with internal/gen and
// labelled by connected component; the shared world is replayed epoch by
// epoch from its schedule, which is deterministic in (network, schedule,
// epoch). Delivery must hold iff the pair shares a component.

// buildGraph rebuilds a generator spec the way the daemon's registry does.
func buildGraph(s registry.Spec) (*graph.Graph, error) {
	switch s.Kind {
	case "grid":
		return gen.Grid(s.Rows, s.Cols), nil
	case "torus":
		return gen.Torus(s.Rows, s.Cols), nil
	case "udg2d":
		return gen.UDG2D(s.N, s.Radius, s.GenSeed).G, nil
	}
	return nil, fmt.Errorf("oracle: unsupported spec kind %q", s.Kind)
}

// unionFind labels the components of nodes 0..n-1.
type unionFind []int32

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int32) { u[u.find(a)] = u.find(b) }

// labels flattens the forest so label equality is component equality.
func (u unionFind) labels() []int32 {
	out := make([]int32, len(u))
	for i := range u {
		out[i] = u.find(int32(i))
	}
	return out
}

func graphComponents(g *graph.Graph) []int32 {
	comp := make([]int32, g.NumNodes())
	for ci, c := range g.Components() {
		for _, v := range c {
			comp[v] = int32(ci)
		}
	}
	return comp
}

// worldReplay is the shared world evolved locally, one label set and one
// edge list per epoch.
type worldReplay struct {
	w     *dynamic.World
	n     int
	comps [][]int32
	edges [][]dynamic.Edge
}

func newWorldReplay(net registry.Spec, sched dynamic.Spec) (*worldReplay, error) {
	g, err := buildGraph(net)
	if err != nil {
		return nil, err
	}
	s, err := sched.Build()
	if err != nil {
		return nil, err
	}
	r := &worldReplay{w: dynamic.NewWorld(g, s), n: g.NumNodes()}
	r.record()
	return r, nil
}

func (r *worldReplay) record() {
	edges := r.w.Edges()
	u := newUnionFind(r.n)
	for _, e := range edges {
		u.union(int32(e.U), int32(e.V))
	}
	r.comps = append(r.comps, u.labels())
	r.edges = append(r.edges, edges)
}

// ensure replays the world up to and including epoch.
func (r *worldReplay) ensure(epoch int) error {
	for len(r.comps) <= epoch {
		if err := r.w.Advance(dynamic.Probe{}); err != nil {
			return err
		}
		r.record()
	}
	return nil
}

// delivered reports whether s and t are connected in the union of the
// topologies of epochs lo..hi: a delivery observed while the world moved
// from lo to hi needs a path through links that existed in that window.
func (r *worldReplay) deliverable(s, t int64, lo, hi int) bool {
	for e := lo; e <= hi; e++ {
		if r.comps[e][s] == r.comps[e][t] {
			return true
		}
	}
	u := newUnionFind(r.n)
	for e := lo; e <= hi; e++ {
		for _, ed := range r.edges[e] {
			u.union(int32(ed.U), int32(ed.V))
		}
	}
	return u.find(int32(s)) == u.find(int32(t))
}

// separable reports whether s and t lie in different components at some
// epoch of lo..hi: a failure verdict must rest on such a snapshot.
func (r *worldReplay) separable(s, t int64, lo, hi int) bool {
	for e := lo; e <= hi; e++ {
		if r.comps[e][s] != r.comps[e][t] {
			return true
		}
	}
	return false
}

// oracle checks the results of one workload.
type oracle struct {
	static map[int][]int32 // by network index, -1 = boot
	world  *worldReplay
	wrong  int
	notes  []string
}

func newOracle(w *workload, worldSeed uint64) (*oracle, error) {
	o := &oracle{static: map[int][]int32{}}
	for i := -1; i < len(w.nets); i++ {
		g, err := buildGraph(w.netSpec(i))
		if err != nil {
			return nil, err
		}
		o.static[i] = graphComponents(g)
	}
	if w.world != nil {
		r, err := newWorldReplay(w.nets[0], w.worldSpec(worldSeed))
		if err != nil {
			return nil, err
		}
		o.world = r
	}
	return o, nil
}

func (o *oracle) flag(format string, args ...any) {
	o.wrong++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// check counts the wrong verdicts among rs. Requests that failed carry no
// verdict and are counted as failures by the runner, not here.
func (o *oracle) check(rs []result) error {
	for i := range rs {
		r := &rs[i]
		if r.fails > 0 || r.j == nil {
			continue
		}
		switch r.j.kind {
		case worldRoute:
			if err := o.checkWorld(r); err != nil {
				return err
			}
		case worldAdvance:
			if err := o.world.ensure(r.epoch); err != nil {
				return err
			}
			if r.links != len(o.world.edges[r.epoch]) {
				o.flag("advance to epoch %d: daemon has %d links, replay %d", r.epoch, r.links, len(o.world.edges[r.epoch]))
			}
		default:
			comp := o.static[r.j.net]
			for k, p := range r.j.pairs {
				want := comp[p[0]] == comp[p[1]]
				if got := r.statuses[k] == "success"; got != want {
					o.flag("%s %d->%d: daemon %q, oracle reachable=%v", r.j.kind, p[0], p[1], r.statuses[k], want)
				}
			}
		}
	}
	return nil
}

func (o *oracle) checkWorld(r *result) error {
	if err := o.world.ensure(r.hi); err != nil {
		return err
	}
	p := r.j.pairs[0]
	ok := false
	switch r.statuses[0] {
	case "success":
		ok = o.world.deliverable(p[0], p[1], r.lo, r.hi)
	case "failure":
		ok = o.world.separable(p[0], p[1], r.lo, r.hi)
	}
	if !ok {
		o.flag("world route %d->%d at epochs [%d,%d]: daemon %q", p[0], p[1], r.lo, r.hi, r.statuses[0])
	}
	return nil
}
