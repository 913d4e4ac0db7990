// Package route implements the paper's primary contribution: Algorithm
// Route (§3) — guaranteed-delivery ad hoc routing by universal exploration
// sequence, with the broadcast variant and the doubling outer loop that
// removes the need to know the component size in advance (§4).
//
// The message header carries (s, t, dir, status, i) and nothing else;
// intermediate nodes keep no state between activations. A message walks the
// degree-reduced 3-regular graph G′ following T_n; if it reaches (a gadget
// node of) t it turns around with status success and backtracks along the
// reversed sequence; if the index exceeds L_n it turns around with status
// failure. The source learns the outcome in either case.
//
// Index discipline (1-based, matching the paper): a forward message at
// position P_k (after k steps) carries i = k+1, the index of the next
// direction to apply. A backward message at P_k carries i = k, the index of
// the step to undo next; it is delivered as soon as it reaches any gadget
// node of s.
//
// The compiled walks read T[i] from a flatgraph.Stream, a packed memo of
// the seed's symbols shared by every walk of one engine. The memo belongs
// to the simulator, not to the nodes: each simulated node still derives
// T[i] from O(log n) bits, and the PeakMemoryBits and MaxHeaderBits
// metering charges the nodes' registers and headers, never the memo.
package route

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/ues"
)

// Errors reported by the router.
var (
	// ErrSequenceExhausted means the doubling loop hit its safety cap
	// without the exploration sequence covering the source component —
	// empirically this would mean the pseudorandom sequence is not
	// universal for the instance (never observed; the cap guards against
	// it becoming an infinite loop).
	ErrSequenceExhausted = errors.New("route: sequence bound cap reached without covering component")
	// ErrIsolatedSource is returned by the no-reduction ablation when the
	// source has no edges to walk (the reduced mode handles this case via
	// the theta gadget).
	ErrIsolatedSource = errors.New("route: source node is isolated")
)

// ConfirmMode selects how the source learns the outcome.
type ConfirmMode int

// Confirmation mechanisms.
const (
	// ConfirmBacktrack is the paper's mechanism: the confirmation retraces
	// the forward walk using the reversibility of exploration sequences.
	// The source always learns the outcome within 2·L_n hops.
	ConfirmBacktrack ConfirmMode = iota
	// ConfirmRestart is the ablation: on finding t (or exhausting the
	// sequence), the confirmation is routed by a fresh forward exploration
	// searching for s. Cheaper when s is found quickly, but a confirmation
	// leg can exhaust its sequence at too-small doubling bounds, leaving
	// the round inconclusive — the reliability gap §1.2 warns about for
	// non-backtracking confirmations.
	ConfirmRestart
)

// Config parameterizes a Router. The zero value is usable.
type Config struct {
	// Seed identifies the exploration sequence family T_n; it is shared
	// protocol configuration, not per-node state.
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	LengthFactor int
	// KnownN, if > 0, is a promised upper bound on the size of the source
	// component of G′; the router runs a single round at this bound, as in
	// the first part of §3. If 0, the router uses the doubling loop.
	KnownN int
	// MaxBound caps the doubling loop (0 = 4·|V(G′)|, always sufficient
	// for a universal sequence).
	MaxBound int
	// MemoryBudgetBits enforces the per-activation working-memory budget;
	// 0 derives an O(log n) default from the graph size.
	MemoryBudgetBits int
	// NoDegreeReduction runs the walk directly on G with full-range
	// directions reduced mod deg(v) — the ablation of the Figure 1 gadget.
	NoDegreeReduction bool
	// Confirm selects the confirmation mechanism (default: the paper's
	// reverse-walk backtracking).
	Confirm ConfirmMode
	// GrowthFactor is the doubling-loop multiplier (default 2, the
	// paper's schedule; the ablation uses 4).
	GrowthFactor int
	// Trace observes every hop of every round.
	Trace netsim.TraceFunc
	// FaultHook, when set, injects message loss (see netsim.WithFault).
	// The paper assumes a static, reliable network; the hook lets the
	// robustness experiments verify that a violated assumption surfaces
	// as netsim.ErrMessageLost and never as a wrong verdict.
	FaultHook func(hop int64) bool
	// SequenceFactory overrides the exploration sequence family: given a
	// size bound it must return T_bound. The default is the PRF-derived
	// ues.Pseudorandom; override to plug certified explicit sequences
	// (ues.CertifiedSmall) or any future construction. The factory must be
	// deterministic — all nodes consult the same T_n.
	SequenceFactory func(bound int) ues.Sequence
	// WireFormat round-trips the header through its serialized form on
	// every hop (netsim.WithWireFormat), as a real link would.
	WireFormat bool
	// DisableFlat forces every walk through the netsim reference engine
	// even when the compiled flat snapshot is available. The flat walker is
	// proven hop-for-hop identical to the reference by the differential
	// tests; this switch exists for those tests and for debugging.
	DisableFlat bool
	// DisableCertificates turns off the O(1) reachability certificate that
	// otherwise answers provably-unreachable pairs from the compile-time
	// component index without walking. The verdict is identical either way
	// (pinned by differential tests); disabling exists for those tests and
	// for measuring the full-budget burn the certificate replaces.
	DisableCertificates bool
}

// growth returns the sanitized growth factor.
func (c Config) growth() int {
	if c.GrowthFactor < 2 {
		return 2
	}
	return c.GrowthFactor
}

// Router routes messages on a fixed graph. It precomputes the degree
// reduction once; Route/Broadcast calls are independent and reusable.
//
// Two execution paths serve each query. The hot path walks the compiled
// CSR snapshot of G′ (package flatgraph) in an allocation-free loop; the
// reference path drives the stateless per-node handlers through the netsim
// token engine. They are hop-for-hop identical (pinned by differential
// tests); the reference runs whenever a configuration needs its
// instrumentation — tracing, fault injection, wire-format round-trips,
// custom memory budgets, restart confirmation, non-PRF sequences, or the
// no-reduction ablation.
type Router struct {
	orig *graph.Graph
	red  *degred.Reduced // nil iff cfg.NoDegreeReduction
	work *graph.Graph
	flat *flatgraph.Graph  // nil iff cfg.NoDegreeReduction (or disabled)
	dirs *flatgraph.Stream // directions of cfg.Seed for the flat walks; nil iff flat is
	cfg  Config
}

// RoundStat records one doubling round.
type RoundStat struct {
	// Bound is the sequence size bound n for this round.
	Bound int
	// SeqLen is L_n.
	SeqLen int
	// Hops is the number of message hops spent in this round.
	Hops int64
	// Outcome is the round's terminal status.
	Outcome netsim.Status
	// Covered reports whether the round's walk covered the source
	// component (checked only after failed rounds).
	Covered bool
}

// Result is the outcome of a Route call.
type Result struct {
	// Status is StatusSuccess if t was reached, StatusFailure if t is
	// provably outside the source component.
	Status netsim.Status
	// Hops is the total message hops across all rounds, including
	// backtracking.
	Hops int64
	// ForwardSteps is the exploration index at which t was found (0 on
	// failure).
	ForwardSteps int64
	// Rounds holds per-round statistics.
	Rounds []RoundStat
	// Bound is the sequence bound of the terminal round.
	Bound int
	// MaxHeaderBits is the largest serialized header observed.
	MaxHeaderBits int
	// PeakMemoryBits is the peak per-activation working memory.
	PeakMemoryBits int
	// Certificate, when non-nil, proves this failure verdict was answered
	// in O(1) from the component index — no hops were walked for it.
	Certificate *Certificate
	// Exhausted is set (with Status left at StatusNone) when a bounded walk
	// stopped before reaching a verdict; Cursor then holds the resumable
	// position.
	Exhausted ExhaustReason
	Cursor    *Cursor
}

// New builds a Router for g, deriving the Figure 1 degree reduction
// (unless cfg disables it). The reduction dominates construction cost;
// callers that already hold a Reduced for g should use NewFromReduced.
func New(g *graph.Graph, cfg Config) (*Router, error) {
	if cfg.NoDegreeReduction {
		return &Router{orig: g, work: g, cfg: cfg}, nil
	}
	red, err := degred.Reduce(g)
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	return NewFromReduced(g, red, cfg, nil)
}

// NewFromReduced builds a Router for g from a precomputed degree reduction
// of g — the reusable artifact that lets one Reduce serve many routers
// (and the sibling Counter). red must be the reduction of g; cfg must not
// also request the no-reduction ablation. dirs is the direction stream the
// flat walks read: pass the stream of cfg.Seed shared by every walker of
// one compiled engine, so its chunks are derived once; nil (or a stream of
// another seed) gives the router a stream of its own.
func NewFromReduced(g *graph.Graph, red *degred.Reduced, cfg Config, dirs *flatgraph.Stream) (*Router, error) {
	if red == nil {
		return nil, errors.New("route: NewFromReduced: nil reduction")
	}
	if cfg.NoDegreeReduction {
		return nil, errors.New("route: NewFromReduced: config disables the degree reduction")
	}
	return &Router{orig: g, red: red, work: red.Graph(), flat: red.Flat(),
		dirs: flatgraph.StreamFor(cfg.Seed, dirs), cfg: cfg}, nil
}

// WorkGraph returns the graph actually walked (G′, or G under the
// ablation). Read-only.
func (r *Router) WorkGraph() *graph.Graph { return r.work }

// OriginalGraph returns the graph the router was built for. Read-only.
func (r *Router) OriginalGraph() *graph.Graph { return r.orig }

// Reduced returns the degree-reduction artifact (nil under the
// no-reduction ablation). Read-only.
func (r *Router) Reduced() *degred.Reduced { return r.red }

// DefaultMemoryBudget returns the enforced per-activation budget for a work
// graph of n nodes: Θ(log n) bits with a constant floor for the fixed
// registers.
func DefaultMemoryBudget(n int) int {
	return 64*(bits.Len(uint(n))+4) + 512
}

// Route sends a message from s to t and returns the outcome learned at s.
// Routing to t == s succeeds trivially with zero hops. t need not exist in
// the graph — a name outside the component yields StatusFailure, which is
// the point of guaranteed termination.
func (r *Router) Route(s, t graph.NodeID) (*Result, error) {
	return r.route(s, t, nil)
}

// RouteTraced is Route recording per-round spans and per-hop walk events
// under sp. Traced rounds stay on the compiled flat path — the
// instrumented stepper reproduces RouteWalk's exact outcome while feeding
// the span's hop ring — so tracing never changes which execution path a
// query takes. A nil (unsampled) span routes identically to Route.
func (r *Router) RouteTraced(s, t graph.NodeID, sp *trace.Span) (*Result, error) {
	return r.route(s, t, sp)
}

func (r *Router) route(s, t graph.NodeID, sp *trace.Span) (*Result, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &Result{Status: netsim.StatusSuccess}, nil
	}
	start, err := r.entry(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if cert := r.unreachableCert(start, t); cert != nil {
		res.Status = netsim.StatusFailure
		res.Certificate = cert
		if sp.Recording() {
			sp.Event("route.certificate",
				trace.Int("src_component", int64(cert.SrcComponent)),
				trace.Int("dst_component", int64(cert.DstComponent)),
				trace.Int("components", int64(cert.Components)))
		}
		return res, nil
	}
	// runRound executes one round at the given bound. delivered reports
	// whether the source learned an outcome; with ConfirmRestart a round
	// can end inconclusively (the confirmation leg exhausted its
	// sequence), which the doubling loop treats like an uncovered failure.
	runRound := func(bound int) (st netsim.Status, delivered bool, err error) {
		seq := r.sequence(bound)
		if fs, ok := r.flatSeq(seq); ok {
			return r.flatRound(start, s, t, fs, bound, res, sp)
		}
		h := netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Status: netsim.StatusNone, Index: 1}
		eng := netsim.NewEngine(r.work,
			&routeHandler{seq: seq, originalOf: r.originalOf(), confirm: r.cfg.Confirm},
			r.engineOptions()...)
		out, err := eng.Run(start, 0, h, 2*int64(seq.Len())+8)
		stat := RoundStat{Bound: bound, SeqLen: seq.Len()}
		if out != nil {
			stat.Hops = out.Hops
			res.Hops += out.Hops
			if out.MaxHeaderBits > res.MaxHeaderBits {
				res.MaxHeaderBits = out.MaxHeaderBits
			}
			if out.PeakMemoryBits > res.PeakMemoryBits {
				res.PeakMemoryBits = out.PeakMemoryBits
			}
		}
		if err != nil {
			return netsim.StatusNone, false, err
		}
		if !out.Delivered {
			if r.cfg.Confirm == ConfirmRestart {
				// Inconclusive: the restart confirmation ran out of
				// sequence before reaching s.
				stat.Outcome = netsim.StatusNone
				res.Rounds = append(res.Rounds, stat)
				res.Bound = bound
				return netsim.StatusNone, false, nil
			}
			return netsim.StatusNone, false, fmt.Errorf("route: message dropped at %d", out.Final)
		}
		stat.Outcome = out.Header.Status
		if out.Header.Status == netsim.StatusSuccess {
			// Reconstruct the exploration index at which t was found.
			// Backtrack: forward steps f and back steps b satisfy
			// f + b = hops and b = f - indexAtDelivery, so
			// f = (hops + index) / 2. Restart: the confirmation leg took
			// index-1 steps after the turnaround reset the index to 1, so
			// f = hops - (index - 1).
			if r.cfg.Confirm == ConfirmRestart {
				res.ForwardSteps = stat.Hops - (out.Header.Index - 1)
			} else {
				res.ForwardSteps = (stat.Hops + out.Header.Index) / 2
			}
		}
		if sp.Recording() {
			sp.Event("route.round.netsim",
				trace.Int("bound", int64(bound)),
				trace.Int("hops", stat.Hops),
				trace.String("outcome", stat.Outcome.String()))
		}
		res.Rounds = append(res.Rounds, stat)
		res.Bound = bound
		return out.Header.Status, true, nil
	}

	if r.cfg.KnownN > 0 {
		st, delivered, err := runRound(r.cfg.KnownN)
		if err != nil {
			return res, err
		}
		if !delivered {
			return res, fmt.Errorf("%w: bound %d (restart confirmation inconclusive)",
				ErrSequenceExhausted, r.cfg.KnownN)
		}
		res.Status = st
		return res, nil
	}

	maxBound := r.cfg.MaxBound
	if maxBound <= 0 {
		maxBound = 4 * r.work.NumNodes()
	}
	growth := r.cfg.growth()
	for bound := 4; ; bound *= growth {
		if bound > maxBound {
			bound = maxBound
		}
		st, delivered, err := runRound(bound)
		if err != nil {
			return res, err
		}
		if st == netsim.StatusSuccess {
			res.Status = st
			return res, nil
		}
		if delivered && st == netsim.StatusFailure {
			// Failed round: decide whether the failure is definitive by
			// the §4 closure check — did T_bound cover the source
			// component?
			covered, err := r.covered(start, t, bound)
			if err != nil {
				return res, err
			}
			if sp.Recording() {
				sp.Event("route.cover_check",
					trace.Int("bound", int64(bound)), trace.Bool("covered", covered))
			}
			res.Rounds[len(res.Rounds)-1].Covered = covered
			if covered {
				res.Status = netsim.StatusFailure
				return res, nil
			}
		}
		if bound >= maxBound {
			return res, fmt.Errorf("%w: bound %d", ErrSequenceExhausted, bound)
		}
	}
}

// flatRound runs one round on the compiled flat walker and folds its
// outcome into res exactly as the reference round does: same RoundStat,
// same hop totals, same header-size and memory-metering statistics, same
// forward-steps reconstruction.
func (r *Router) flatRound(start, s, t graph.NodeID, fs flatgraph.Seq, bound int, res *Result, sp *trace.Span) (netsim.Status, bool, error) {
	si, ok := r.flat.Index(start)
	if !ok {
		return netsim.StatusNone, false, fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, start)
	}
	var out flatgraph.RouteOutcome
	var err error
	if sp.Recording() {
		out, err = r.flatRoundTraced(si, s, t, fs, bound, sp)
	} else {
		out, err = r.flat.RouteWalk(si, s, t, fs)
	}
	stat := RoundStat{Bound: bound, SeqLen: fs.Length, Hops: out.Hops}
	res.Hops += out.Hops
	// The largest header any activation observes carries the walk's peak
	// index; src, dst, and the dir/status byte are size-constant across the
	// round, so one evaluation at the peak index reproduces the reference's
	// per-activation maximum.
	hb := netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: out.MaxIndex}.Bits()
	if hb > res.MaxHeaderBits {
		res.MaxHeaderBits = hb
	}
	if out.PeakMemoryBits > res.PeakMemoryBits {
		res.PeakMemoryBits = out.PeakMemoryBits
	}
	if err != nil {
		return netsim.StatusNone, false, fmt.Errorf("route: flat walk: %w", err)
	}
	st := netsim.StatusFailure
	if out.Success {
		st = netsim.StatusSuccess
		// Same reconstruction as the reference: forward steps f and back
		// steps b satisfy f + b = hops and b = f - indexAtDelivery.
		res.ForwardSteps = (out.Hops + out.DeliveredIndex) / 2
	}
	stat.Outcome = st
	res.Rounds = append(res.Rounds, stat)
	res.Bound = bound
	return st, true, nil
}

// flatRoundTraced runs one flat round hop-at-a-time on the instrumented
// stepper, recording a child span whose hop ring keeps the tail of the
// walk. The stepper's metering replica makes its Outcome identical to
// RouteWalk's, so tracing is invisible in the Result.
func (r *Router) flatRoundTraced(si int32, s, t graph.NodeID, fs flatgraph.Seq, bound int, sp *trace.Span) (flatgraph.RouteOutcome, error) {
	rsp := sp.Child("route.round")
	defer rsp.End()
	rsp.SetAttr(trace.Int("bound", int64(bound)), trace.Int("seq_len", int64(fs.Length)))
	st, err := r.flat.RouteStepper(si, s, t, fs)
	if err != nil {
		return flatgraph.RouteOutcome{}, err
	}
	st.Instrument(func(node graph.NodeID, index int64, backward bool) {
		rsp.Hop(trace.HopEvent{
			Node:       int64(node),
			Index:      index,
			HeaderBits: int32(netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: index}.Bits()),
			Backward:   backward,
		})
	})
	for !st.Step() {
	}
	out := st.Outcome()
	rsp.SetAttr(trace.Bool("success", out.Success), trace.Int("hops", out.Hops))
	return out, st.Err()
}

// unreachableCert answers the reachability question from the memoized
// component index: a non-nil certificate proves start's component can never
// contain a gadget of t, so the walk's verdict is StatusFailure before the
// first hop. Soundness rests on the theta gadget being internally
// connected — every gadget node of t shares the component of t's entry.
// Returns nil (walk normally) when t is reachable, the ablation is active,
// or certificates are disabled.
//
// Certificates only fire on multi-component graphs. On a single-component
// graph every existing target is reachable, and a name with no gadget is
// only provably absent once the walk covers the component — the early-out
// keeps the reachable hot path at two loads and keeps the static and
// dynamic routers answer-for-answer identical.
func (r *Router) unreachableCert(start graph.NodeID, t graph.NodeID) *Certificate {
	if r.cfg.DisableCertificates || r.flat == nil {
		return nil
	}
	comps := r.flat.Components()
	if comps.Count() == 1 {
		return nil
	}
	si, ok := r.flat.Index(start)
	if !ok {
		return nil
	}
	sc := comps.Of(si)
	te, ok := r.red.Entry(t)
	if !ok {
		// t is not a node of the graph at all: unreachable by definition.
		return &Certificate{SrcComponent: sc, DstComponent: -1, Components: comps.Count()}
	}
	ti, ok := r.flat.Index(te)
	if !ok {
		return &Certificate{SrcComponent: sc, DstComponent: -1, Components: comps.Count()}
	}
	tc := comps.Of(ti)
	if tc == sc {
		return nil
	}
	return &Certificate{SrcComponent: sc, DstComponent: tc, Components: comps.Count()}
}

// entry maps an original node to its walk entry point.
func (r *Router) entry(s graph.NodeID) (graph.NodeID, error) {
	if r.red == nil {
		if r.orig.Degree(s) == 0 {
			return 0, fmt.Errorf("%w: %d", ErrIsolatedSource, s)
		}
		return s, nil
	}
	e, ok := r.red.Entry(s)
	if !ok {
		return 0, fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, s)
	}
	return e, nil
}

// originalOf returns the gadget-to-original projection (identity under the
// ablation).
func (r *Router) originalOf() func(graph.NodeID) graph.NodeID {
	if r.red == nil {
		return func(v graph.NodeID) graph.NodeID { return v }
	}
	red := r.red
	return func(v graph.NodeID) graph.NodeID {
		o, ok := red.Original(v)
		if !ok {
			return v
		}
		return o
	}
}

// sequence returns T_bound for this protocol instance, in the compiled
// form (length frozen at construction) so the per-hop bounds check costs no
// recomputation.
func (r *Router) sequence(bound int) ues.Sequence {
	if r.cfg.SequenceFactory != nil {
		return r.cfg.SequenceFactory(bound)
	}
	base := 3
	if r.cfg.NoDegreeReduction {
		base = 0 // full-range directions, reduced mod deg(v) by the walk rule
	}
	p := &ues.Pseudorandom{
		Seed:         r.cfg.Seed,
		N:            bound,
		Base:         base,
		LengthFactor: r.cfg.LengthFactor,
	}
	return p.Compiled()
}

// flatSeq decides whether a round over seq may run on the compiled flat
// walker, and returns it as a prefix of the router's direction stream if
// so. The reference engine keeps the round whenever its instrumentation is
// requested or the sequence is not the stream's: not PRF-backed, not base
// 3, or of another seed.
func (r *Router) flatSeq(seq ues.Sequence) (flatgraph.Seq, bool) {
	if r.flat == nil || r.cfg.DisableFlat || r.cfg.NoDegreeReduction ||
		r.cfg.Confirm != ConfirmBacktrack || r.cfg.Trace != nil ||
		r.cfg.FaultHook != nil || r.cfg.WireFormat || r.cfg.MemoryBudgetBits != 0 {
		return flatgraph.Seq{}, false
	}
	prf, ok := seq.(ues.PRFBacked)
	if !ok {
		return flatgraph.Seq{}, false
	}
	seed, base := prf.PRFParams()
	if base != 3 || seed != r.dirs.Seed() {
		return flatgraph.Seq{}, false
	}
	return r.dirs.Seq(seq.Len()), true
}

func (r *Router) engineOptions() []netsim.Option {
	budget := r.cfg.MemoryBudgetBits
	if budget == 0 {
		budget = DefaultMemoryBudget(r.work.NumNodes())
	}
	opts := []netsim.Option{netsim.WithMemoryBudget(budget)}
	if r.cfg.Trace != nil {
		opts = append(opts, netsim.WithTrace(r.cfg.Trace))
	}
	if r.cfg.FaultHook != nil {
		opts = append(opts, netsim.WithFault(r.cfg.FaultHook))
	}
	if r.cfg.WireFormat {
		opts = append(opts, netsim.WithWireFormat())
	}
	return opts
}

// covered decides whether a round that failed to find t at T_bound is
// definitive — the §4 closure check. A failed round whose start shares t's
// component never closes: had the walk covered that component, it would
// have stood on a gadget of t and succeeded. The memoized component index
// answers that case in O(1) without walking; otherwise coverWalk runs the
// check.
func (r *Router) covered(start, t graph.NodeID, bound int) (bool, error) {
	if r.sharesComponent(start, t) {
		return false, nil
	}
	return r.coverWalk(start, bound)
}

// sharesComponent reports whether t's entry gadget lies in start's
// component of G′ (false when t has no gadget, and under the no-reduction
// ablation).
func (r *Router) sharesComponent(start, t graph.NodeID) bool {
	if r.flat == nil {
		return false
	}
	te, ok := r.red.Entry(t)
	if !ok {
		return false
	}
	ti, ok := r.flat.Index(te)
	if !ok {
		return false
	}
	si, ok := r.flat.Index(start)
	return ok && r.flat.Components().Same(si, ti)
}

// coverWalk runs the §4 closure check for T_bound from the entry position:
// it walks the sequence, collects the visited set V, and reports whether
// every neighbour of V is in V (in which case V equals the component of s
// and a failed search is definitive). This is the simulator-local
// equivalent of CountNodes' Retrieve loops; the message-faithful version
// with its full quadratic message cost lives in package count.
func (r *Router) coverWalk(start graph.NodeID, bound int) (bool, error) {
	seq := r.sequence(bound)
	if fs, ok := r.flatSeq(seq); ok {
		si, ok := r.flat.Index(start)
		if !ok {
			return false, fmt.Errorf("route: cover check: %w: %d", graph.ErrNodeNotFound, start)
		}
		visited := make([]bool, r.flat.NumNodes())
		if _, err := r.flat.CoverWalk(si, fs, visited, nil); err != nil {
			return false, fmt.Errorf("route: cover check: %w", err)
		}
		return r.flat.Closed(visited), nil
	}
	visited := map[graph.NodeID]bool{start: true}
	pos := ues.Start(start)
	for i := 1; i <= seq.Len(); i++ {
		next, err := ues.Step(r.work, pos, seq.At(i))
		if err != nil {
			return false, fmt.Errorf("route: cover check: %w", err)
		}
		pos = next
		visited[pos.Node] = true
	}
	for v := range visited {
		for p := 0; p < r.work.Degree(v); p++ {
			h, err := r.work.Neighbor(v, p)
			if err != nil {
				return false, err
			}
			if !visited[h.To] {
				return false, nil
			}
		}
	}
	return true, nil
}

// routeHandler is Algorithm Route as a stateless per-node handler.
type routeHandler struct {
	seq        ues.Sequence
	originalOf func(graph.NodeID) graph.NodeID
	confirm    ConfirmMode
}

// charge meters the handler's working registers: a constant number of
// words, each O(log n) bits. The meter aborts the run if a handler ever
// exceeded its O(log n) budget.
func charge(mem *netsim.Memory, values ...int64) error {
	for _, v := range values {
		w := bits.Len64(uint64(abs64(v))) + 1
		if err := mem.Charge(w); err != nil {
			return err
		}
	}
	return nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// OnMessage implements the pseudocode of §3 verbatim (with the index
// discipline documented in the package comment).
func (rh *routeHandler) OnMessage(self graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	selfOrig := rh.originalOf(self)
	if err := charge(mem, int64(self), int64(selfOrig), int64(inPort), int64(degree), h.Index); err != nil {
		return netsim.Decision{}, err
	}
	if rh.confirm == ConfirmRestart {
		return rh.onRestartMessage(selfOrig, inPort, degree, h, mem)
	}

	if h.Dir == netsim.Backward {
		// "if dir = back and v = s: return status".
		if selfOrig == h.Src {
			return netsim.Decision{Kind: netsim.Deliver}, nil
		}
		t := rh.seq.At(int(h.Index))
		if err := charge(mem, int64(t)); err != nil {
			return netsim.Decision{}, err
		}
		out := ues.PrevPort(degree, inPort, t)
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
	}

	// Forward direction.
	// "if dir = forward and v = t: dir := back, i := i-1, status :=
	// success, send message back".
	if selfOrig == h.Dst {
		h.Dir = netsim.Backward
		h.Status = netsim.StatusSuccess
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
	}
	// "if dir = forward and i > Ln: dir := back, i := i-1, status :=
	// failure, send message back".
	if int(h.Index) > rh.seq.Len() {
		h.Dir = netsim.Backward
		h.Status = netsim.StatusFailure
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
	}
	t := rh.seq.At(int(h.Index))
	if err := charge(mem, int64(t)); err != nil {
		return netsim.Decision{}, err
	}
	out := ues.NextPort(degree, inPort, t)
	h.Index++
	return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
}

// onRestartMessage implements the ConfirmRestart ablation. The message
// only ever travels forward. Phase is encoded in Status: None = searching
// for Dst; Success/Failure = confirming back to Src via a fresh
// exploration (index reset to 1 at the turnaround).
func (rh *routeHandler) onRestartMessage(selfOrig graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	searching := h.Status == netsim.StatusNone
	if searching && selfOrig == h.Dst {
		// Found t: flip to the confirmation phase and keep walking with a
		// fresh index, now hunting for s.
		h.Status = netsim.StatusSuccess
		h.Index = 1
		searching = false
	} else if !searching && selfOrig == h.Src {
		return netsim.Decision{Kind: netsim.Deliver}, nil
	}
	if int(h.Index) > rh.seq.Len() {
		if searching {
			h.Status = netsim.StatusFailure
			h.Index = 1
		} else {
			// The confirmation leg itself ran out of sequence: the round
			// is inconclusive and the source never hears back — the
			// reliability gap of non-backtracking confirmations.
			return netsim.Decision{Kind: netsim.Drop}, nil
		}
	}
	t := rh.seq.At(int(h.Index))
	if err := charge(mem, int64(t)); err != nil {
		return netsim.Decision{}, err
	}
	out := ues.NextPort(degree, inPort, t)
	h.Index++
	return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
}
