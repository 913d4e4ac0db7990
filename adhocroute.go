// Package adhocroute is a Go implementation of "On ad hoc routing with
// guaranteed delivery" (Mark Braverman, PODC 2008, arXiv:0804.0862): ad hoc
// routing, broadcasting, and component counting on static port-labeled
// networks with guaranteed termination, O(log n) node memory, and O(log n)
// message overhead, via universal exploration sequences.
//
// The package is a thin facade over the implementation packages:
//
//	internal/engine — the prepared routing engine (compile once, query concurrently)
//	internal/route  — Algorithm Route (§3), broadcast, hybrid stepping
//	internal/count  — Algorithm CountNodes (§4)
//	internal/hybrid — Corollary 2 composition
//	internal/degred — the Figure 1 degree reduction
//	internal/ues    — exploration sequences
//	internal/zigzag — the Reingold derandomization substrate
//
// Quickstart:
//
//	nw := adhocroute.NewNetwork()
//	for i := 0; i < 4; i++ {
//		_ = nw.AddNode(adhocroute.NodeID(i))
//	}
//	_ = nw.AddLink(0, 1)
//	_ = nw.AddLink(1, 2)
//	_ = nw.AddLink(2, 3)
//	res, err := nw.Route(0, 3)
//	// res.Status == adhocroute.StatusSuccess; res.Hops counts traversals.
//
// For sustained traffic, compile the network once and query the returned
// Router concurrently (see Network.Compile); cmd/adhocd serves a compiled
// engine over HTTP.
package adhocroute

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/count"
	"repro/internal/degred"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/netsim"
	"repro/internal/route"
)

// NodeID is a node's universal name, drawn from a namespace of size n (the
// paper's model: e.g. a physical location or an IPv4 address).
type NodeID int64

// Status is a routing verdict.
type Status int

// Verdicts: StatusSuccess means the message reached t and the confirmation
// returned; StatusFailure means t is provably outside s's component.
const (
	StatusNone Status = iota
	StatusSuccess
	StatusFailure
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusSuccess:
		return "success"
	case StatusFailure:
		return "failure"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrNodeExists and friends re-export the error taxonomy callers match on.
var (
	ErrNodeExists   = graph.ErrNodeExists
	ErrNodeNotFound = graph.ErrNodeNotFound
)

// Network is a static ad hoc network under construction or in use. It is
// not safe for concurrent mutation; routing calls are read-only and may be
// issued concurrently once construction is done.
//
// One-shot routing calls lazily derive the Figure 1 degree reduction once
// per topology and reuse it across calls; mutating the network invalidates
// the cache. For sustained query traffic, Compile the network once and
// query the returned Router.
type Network struct {
	g   *graph.Graph
	pos map[graph.NodeID]geom.Point

	// mu guards the lazily-derived prepared state below; topology
	// mutations reset it.
	mu  sync.Mutex
	red *degred.Reduced
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{g: graph.New(), pos: make(map[graph.NodeID]geom.Point)}
}

// AddNode adds a node with the given universal name.
func (nw *Network) AddNode(id NodeID) error {
	nw.invalidate()
	return nw.g.AddNode(graph.NodeID(id))
}

// AddLink adds an undirected link between two existing nodes. Parallel
// links and self-loops are allowed (the model is a multigraph).
func (nw *Network) AddLink(a, b NodeID) error {
	nw.invalidate()
	_, _, err := nw.g.AddEdge(graph.NodeID(a), graph.NodeID(b))
	return err
}

// invalidate drops the prepared state after a topology mutation. Routers
// already compiled keep serving the topology they were compiled for.
func (nw *Network) invalidate() {
	nw.mu.Lock()
	nw.red = nil
	nw.mu.Unlock()
}

// reduction returns the cached degree reduction of the current topology,
// deriving it on first use. Safe for concurrent routing calls.
func (nw *Network) reduction() (*degred.Reduced, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.red == nil {
		red, err := degred.Reduce(nw.g)
		if err != nil {
			return nil, err
		}
		nw.red = red
	}
	return nw.red, nil
}

// router builds a route.Router for the given per-call options, reusing the
// cached reduction (the expensive part) whenever the options allow it.
func (nw *Network) router(cfg options) (*route.Router, error) {
	rcfg := cfg.routeConfig()
	if rcfg.NoDegreeReduction {
		return route.New(nw.g, rcfg)
	}
	red, err := nw.reduction()
	if err != nil {
		return nil, err
	}
	return route.NewFromReduced(nw.g, red, rcfg, nil)
}

// SetPosition records a node position (used by geometric tooling and the
// position-based baselines; routing itself never reads positions).
func (nw *Network) SetPosition(id NodeID, x, y, z float64) error {
	if !nw.g.HasNode(graph.NodeID(id)) {
		return fmt.Errorf("adhocroute: %w: %d", ErrNodeNotFound, id)
	}
	nw.pos[graph.NodeID(id)] = geom.Point{X: x, Y: y, Z: z}
	return nil
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return nw.g.NumNodes() }

// NumLinks returns the link count.
func (nw *Network) NumLinks() int { return nw.g.NumEdges() }

// Nodes returns all node IDs in insertion order.
func (nw *Network) Nodes() []NodeID {
	ids := nw.g.Nodes()
	out := make([]NodeID, len(ids))
	for i, id := range ids {
		out[i] = NodeID(id)
	}
	return out
}

// Neighbors returns the IDs adjacent to id (with multiplicity, in port
// order).
func (nw *Network) Neighbors(id NodeID) ([]NodeID, error) {
	v := graph.NodeID(id)
	if !nw.g.HasNode(v) {
		return nil, fmt.Errorf("adhocroute: %w: %d", ErrNodeNotFound, id)
	}
	out := make([]NodeID, 0, nw.g.Degree(v))
	for p := 0; p < nw.g.Degree(v); p++ {
		h, err := nw.g.Neighbor(v, p)
		if err != nil {
			return nil, err
		}
		out = append(out, NodeID(h.To))
	}
	return out, nil
}

// ConnectedTo reports whether a and b are in the same component, by oracle
// BFS (ground truth for tests and tooling; the routing algorithms never
// use it).
func (nw *Network) ConnectedTo(a, b NodeID) bool {
	dist := nw.g.BFSDist(graph.NodeID(a))
	_, ok := dist[graph.NodeID(b)]
	return ok
}

// Save writes the network's graph in the text codec.
func (nw *Network) Save(w io.Writer) error { return nw.g.Encode(w) }

// Load reads a network from the text codec.
func Load(r io.Reader) (*Network, error) {
	g, err := graph.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Network{g: g, pos: make(map[graph.NodeID]geom.Point)}, nil
}

// NewUnitDisk2D generates a random 2-D unit-disk network: n nodes uniform
// in the unit square, links within radius. Deterministic in seed.
func NewUnitDisk2D(n int, radius float64, seed uint64) *Network {
	ud := gen.UDG2D(n, radius, seed)
	return &Network{g: ud.G, pos: ud.Pos}
}

// NewUnitDisk3D generates a random 3-D unit-ball network — the topology
// class for which geometric routing has no delivery guarantee and this
// algorithm does.
func NewUnitDisk3D(n int, radius float64, seed uint64) *Network {
	ud := gen.UDG3D(n, radius, seed)
	return &Network{g: ud.G, pos: ud.Pos}
}

// NewGrid generates a rows×cols grid network.
func NewGrid(rows, cols int) *Network {
	return &Network{g: gen.Grid(rows, cols), pos: make(map[graph.NodeID]geom.Point)}
}

// RouteResult reports a Route call.
type RouteResult struct {
	// Status is the verdict s learns: success or (definitive) failure.
	Status Status
	// Hops is the total number of link traversals, including backtracking
	// and all doubling rounds.
	Hops int64
	// ForwardSteps is the exploration index at which t was found.
	ForwardSteps int64
	// Rounds is the number of doubling rounds used.
	Rounds int
	// Bound is the final sequence size bound.
	Bound int
	// HeaderBits is the largest message header observed (Θ(log n)).
	HeaderBits int
	// NodeMemoryBits is the peak per-activation node memory (Θ(log n),
	// enforced).
	NodeMemoryBits int
}

// Route sends a message from s to t with guaranteed termination: it
// returns StatusSuccess if and only if t is reachable from s, and
// StatusFailure otherwise — t need not even exist. Intermediate nodes hold
// no routing state; the message header carries O(log n) bits.
func (nw *Network) Route(s, t NodeID, opts ...Option) (*RouteResult, error) {
	r, err := nw.router(buildOptions(opts))
	if err != nil {
		return nil, err
	}
	res, err := r.Route(graph.NodeID(s), graph.NodeID(t))
	if err != nil {
		return nil, err
	}
	return &RouteResult{
		Status:         Status(res.Status),
		Hops:           res.Hops,
		ForwardSteps:   res.ForwardSteps,
		Rounds:         len(res.Rounds),
		Bound:          res.Bound,
		HeaderBits:     res.MaxHeaderBits,
		NodeMemoryBits: res.PeakMemoryBits,
	}, nil
}

// RouteWithPath routes s→t and additionally returns, on success, the
// sequence of nodes the forward exploration visited from s to t
// (consecutive duplicates collapsed; exploration walks may revisit nodes).
// The path is reconstructed by local replay and costs no extra messages.
func (nw *Network) RouteWithPath(s, t NodeID, opts ...Option) (*RouteResult, []NodeID, error) {
	r, err := nw.router(buildOptions(opts))
	if err != nil {
		return nil, nil, err
	}
	res, path, err := r.RouteWithPath(graph.NodeID(s), graph.NodeID(t))
	if err != nil {
		return nil, nil, err
	}
	out := &RouteResult{
		Status:         Status(res.Status),
		Hops:           res.Hops,
		ForwardSteps:   res.ForwardSteps,
		Rounds:         len(res.Rounds),
		Bound:          res.Bound,
		HeaderBits:     res.MaxHeaderBits,
		NodeMemoryBits: res.PeakMemoryBits,
	}
	if path == nil {
		return out, nil, nil
	}
	pub := make([]NodeID, len(path))
	for i, v := range path {
		pub[i] = NodeID(v)
	}
	return out, pub, nil
}

// BroadcastResult reports a Broadcast call.
type BroadcastResult struct {
	// Reached is the number of distinct nodes that received the payload
	// (the whole component of s on success).
	Reached int
	// Nodes lists the reached node IDs in increasing order.
	Nodes []NodeID
	// Hops is the total number of link traversals.
	Hops int64
	// Rounds is the number of doubling rounds used.
	Rounds int
}

// Broadcast delivers a payload from s to every node in s's component and
// returns once the completion confirmation reaches s.
func (nw *Network) Broadcast(s NodeID, opts ...Option) (*BroadcastResult, error) {
	r, err := nw.router(buildOptions(opts))
	if err != nil {
		return nil, err
	}
	res, err := r.Broadcast(graph.NodeID(s))
	if err != nil {
		return nil, err
	}
	nodes := make([]NodeID, len(res.Nodes))
	for i, v := range res.Nodes {
		nodes[i] = NodeID(v)
	}
	return &BroadcastResult{
		Reached: res.Reached,
		Nodes:   nodes,
		Hops:    res.Hops,
		Rounds:  len(res.Rounds),
	}, nil
}

// CountResult reports a CountComponent call.
type CountResult struct {
	// Count is |C_s|: the exact number of nodes in s's component.
	Count int
	// ReducedCount is the size of the component in the 3-regular reduction
	// (the bound usable for subsequent routing).
	ReducedCount int
	// Rounds is the number of doubling rounds.
	Rounds int
	// MessageHops is the message cost (message-faithful mode only).
	MessageHops int64
}

// CountComponent computes the exact size of s's connected component with
// no prior knowledge of the network, per §4 of the paper.
func (nw *Network) CountComponent(s NodeID, opts ...Option) (*CountResult, error) {
	cfg := buildOptions(opts)
	red, err := nw.reduction()
	if err != nil {
		return nil, err
	}
	c, err := count.NewFromReduced(nw.g, red, cfg.countConfig(), nil)
	if err != nil {
		return nil, err
	}
	res, err := c.Count(graph.NodeID(s))
	if err != nil {
		return nil, err
	}
	return &CountResult{
		Count:        res.OriginalCount,
		ReducedCount: res.ReducedCount,
		Rounds:       res.Rounds,
		MessageHops:  res.Hops,
	}, nil
}

// HybridResult reports a RouteHybrid call.
type HybridResult struct {
	// Status is the verdict (success, or definitive failure).
	Status Status
	// Winner names the component that terminated the race:
	// "random-walk" or "guaranteed-ues".
	Winner string
	// CombinedSteps is the interleaved total cost.
	CombinedSteps int64
}

// RouteHybrid routes s→t with the Corollary 2 composition: a random-walk
// router raced step-for-step against the guaranteed router, keeping the
// probabilistic router's expected speed and the guaranteed router's
// termination.
func (nw *Network) RouteHybrid(s, t NodeID, opts ...Option) (*HybridResult, error) {
	cfg := buildOptions(opts)
	r, err := nw.router(cfg)
	if err != nil {
		return nil, err
	}
	res, err := hybrid.RouteHybridWith(r, graph.NodeID(s), graph.NodeID(t), cfg.seed^0x5eed)
	if err != nil {
		return nil, err
	}
	return &HybridResult{
		Status:        Status(res.Status),
		Winner:        res.Winner,
		CombinedSteps: res.CombinedSteps,
	}, nil
}

// statusMirror documents (and api_test.go verifies) that the public Status
// values mirror netsim's, so the conversions above are value-preserving.
const statusMirror = Status(netsim.StatusSuccess) == StatusSuccess &&
	Status(netsim.StatusFailure) == StatusFailure &&
	Status(netsim.StatusNone) == StatusNone
