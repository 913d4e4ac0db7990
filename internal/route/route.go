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
	"context"
	"errors"
	"fmt"
	"math"
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
// RouteQuery is the one route entry point: a Query carries the pair plus
// an optional deadline, hop budget, resume cursor and trace span, and
// Route is RouteQuery with only the pair set.
//
// Two execution paths serve each query. The hot path walks the compiled
// CSR snapshot of G′ (package flatgraph) in an allocation-free loop; the
// reference path drives the stateless per-node handlers through the netsim
// token engine. They are hop-for-hop identical (pinned by differential
// tests); the reference runs whenever a configuration needs its
// instrumentation — netsim tracing (Config.Trace), fault injection,
// wire-format round-trips, custom memory budgets, restart confirmation,
// non-PRF sequences, or the no-reduction ablation.
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

// Query is one route request. Src and Dst name the pair; every other
// field's zero value means the plain walk: Ctx nil has no deadline, Budget
// 0 no hop limit, Cursor nil a fresh walk, and Span nil no tracing.
type Query struct {
	// Ctx's deadline or cancellation is honored at round starts, never per
	// hop; when it strikes the walk stops with ExhaustDeadline.
	Ctx context.Context
	// Src and Dst are the route's endpoints.
	Src, Dst graph.NodeID
	// Budget caps the message hops this call performs; when it strikes
	// the walk stops with ExhaustBudget. ≤ 0 is unlimited.
	Budget int64
	// Cursor continues a walk an earlier call stopped (Result.Cursor).
	Cursor *Cursor
	// Span records the loop's events and, on the flat path, one
	// "route.round" child span per round segment with its hop tail.
	Span *trace.Span
}

// Bounded reports whether q asks for bounded work — a deadline, a budget
// or a resume — which only the compiled flat path supports.
func (q Query) Bounded() bool { return q.Ctx != nil || q.Budget > 0 || q.Cursor != nil }

// Route sends a message from s to t and returns the outcome learned at s.
// Routing to t == s succeeds trivially with zero hops. t need not exist in
// the graph — a name outside the component yields StatusFailure, which is
// the point of guaranteed termination.
func (r *Router) Route(s, t graph.NodeID) (*Result, error) {
	return r.RouteQuery(Query{Src: s, Dst: t})
}

// RouteQuery answers q with the doubling loop of §4 — the one loop behind
// every static route, plain, traced, bounded or resumed. A walk's
// whole state is its Cursor (§3's header plus a position), so a fresh walk
// is a resume from the origin cursor, and a walk split across
// continuations is hop-for-hop the uninterrupted one: same verdict, hops,
// forward steps, header and memory metering (pinned by differential
// tests).
//
// When q's budget or deadline strikes first, the Result has Status none,
// Exhausted set, and a Cursor to pass back in a later Query. Bounded
// queries run only on the compiled flat path; instrumented or ablated
// configurations return ErrBudgetUnsupported for them. Tracing never
// changes the path a query takes: a traced round runs on the instrumented
// flat stepper, whose outcome equals the kernel's.
func (r *Router) RouteQuery(q Query) (*Result, error) {
	s, t, sp := q.Src, q.Dst, q.Span
	if q.Bounded() && !r.flatConfig() {
		return nil, ErrBudgetUnsupported
	}
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &Result{Status: netsim.StatusSuccess}, nil
	}
	cur := q.Cursor
	if err := r.checkCursor(cur, s, t); err != nil {
		return nil, err
	}
	start, err := r.entry(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if cur == nil {
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
	}
	var origin flatgraph.WalkState // a fresh round's flat state
	if r.flat != nil {
		si, ok := r.flat.Index(start)
		if !ok {
			return nil, fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, start)
		}
		origin = flatgraph.Origin(si)
	}
	bound, w, rounds := r.firstBound(), origin, 1
	if cur != nil {
		bound, rounds = cur.Bound, cur.Rounds
		w = flatgraph.WalkState{
			Node: cur.Node, InPort: cur.InPort, Index: cur.Index, Backward: cur.Backward,
			RouteOutcome: flatgraph.RouteOutcome{Success: cur.Success, Hops: cur.RoundHops,
				MaxIndex: cur.MaxIndex, PeakMemoryBits: cur.PeakMemoryBits},
		}
		res.Hops, res.MaxHeaderBits, res.PeakMemoryBits = cur.Hops, cur.MaxHeaderBits, cur.PeakMemoryBits
		if sp.Recording() {
			sp.Event("route.cursor_resume",
				trace.Int("bound", int64(bound)), trace.Int("index", cur.Index),
				trace.Int("round_hops", cur.RoundHops))
		}
	}
	room := q.Budget
	if room <= 0 {
		room = math.MaxInt64
	}
	for {
		if q.Ctx != nil && q.Ctx.Err() != nil {
			return r.exhaust(res, &w, s, t, bound, rounds, ExhaustDeadline, sp), nil
		}
		seq := r.sequence(bound)
		var stat RoundStat
		delivered := true
		if fs, ok := r.flatSeq(seq); ok {
			spent := w.Hops
			err := r.walkSegment(&w, s, t, fs, bound, room, sp)
			room -= w.Hops - spent
			if err != nil {
				res.Hops += w.Hops
				return res, fmt.Errorf("route: flat walk: %w", err)
			}
			if !w.Done {
				return r.exhaust(res, &w, s, t, bound, rounds, ExhaustBudget, sp), nil
			}
			stat = r.foldFlat(res, &w, s, t, bound, fs.Length)
		} else if q.Bounded() {
			return res, ErrBudgetUnsupported
		} else if stat, delivered, err = r.netsimRound(start, s, t, seq, bound, res, sp); err != nil {
			return res, err
		}
		res.Rounds = append(res.Rounds, stat)
		res.Bound = bound
		verdict, next, err := r.afterRound(start, t, &res.Rounds[len(res.Rounds)-1], delivered, sp)
		if err != nil || verdict != netsim.StatusNone {
			res.Status = verdict
			return res, err
		}
		bound, w = next, origin
		rounds++
	}
}

// firstBound is the doubling loop's first bound: the promised KnownN, else
// 4 clamped to the cap.
func (r *Router) firstBound() int {
	if r.cfg.KnownN > 0 {
		return r.cfg.KnownN
	}
	return min(4, r.maxBound())
}

// maxBound is the doubling loop's cap (default 4·|V(G′)|, always
// sufficient for a universal sequence).
func (r *Router) maxBound() int {
	if r.cfg.MaxBound > 0 {
		return r.cfg.MaxBound
	}
	return 4 * r.work.NumNodes()
}

// nextBound grows an undecided round's bound, clamped to the cap; a round
// already at the cap is ErrSequenceExhausted.
func (r *Router) nextBound(bound int) (int, error) {
	maxBound := r.maxBound()
	if bound >= maxBound {
		return 0, fmt.Errorf("%w: bound %d", ErrSequenceExhausted, bound)
	}
	return min(bound*r.cfg.growth(), maxBound), nil
}

// afterRound is the doubling loop's step after a round ended: the verdict
// if the round decided the query, else the next round's bound. A success
// is the verdict; under KnownN so is a failure (§3's single round). A
// delivered failure is definitive iff T_bound covered the source
// component — the §4 closure check, whose answer lands in stat.Covered.
// An undecided round takes nextBound. delivered is false only for a
// restart-confirmation round that ended inconclusively.
func (r *Router) afterRound(start, t graph.NodeID, stat *RoundStat, delivered bool, sp *trace.Span) (verdict netsim.Status, next int, err error) {
	if stat.Outcome == netsim.StatusSuccess {
		return netsim.StatusSuccess, 0, nil
	}
	if r.cfg.KnownN > 0 {
		if !delivered {
			return netsim.StatusNone, 0, fmt.Errorf("%w: bound %d (restart confirmation inconclusive)",
				ErrSequenceExhausted, stat.Bound)
		}
		return netsim.StatusFailure, 0, nil
	}
	if delivered {
		covered, err := r.covered(start, t, stat.Bound)
		if err != nil {
			return netsim.StatusNone, 0, err
		}
		if sp.Recording() {
			sp.Event("route.cover_check",
				trace.Int("bound", int64(stat.Bound)), trace.Bool("covered", covered))
		}
		stat.Covered = covered
		if covered {
			return netsim.StatusFailure, 0, nil
		}
	}
	next, err = r.nextBound(stat.Bound)
	return netsim.StatusNone, next, err
}

// checkCursor rejects a resume cursor that does not belong to this static
// router and pair.
func (r *Router) checkCursor(cur *Cursor, s, t graph.NodeID) error {
	if cur == nil {
		return nil
	}
	if cur.Src != s || cur.Dst != t {
		return fmt.Errorf("%w: cursor is for %d->%d, request is for %d->%d",
			ErrBadCursor, cur.Src, cur.Dst, s, t)
	}
	if cur.Version != 0 {
		return fmt.Errorf("%w: dynamic-world cursor (version %d) on a static router",
			ErrBadCursor, cur.Version)
	}
	if cur.Bound < 1 || cur.Index < 0 {
		return fmt.Errorf("%w: bound %d, index %d", ErrBadCursor, cur.Bound, cur.Index)
	}
	if err := r.flat.CheckPosition(cur.Node, cur.InPort); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	return nil
}

// walkSegment advances the flat round in w by at most room hops. An
// untraced segment runs the allocation-free RouteWalkFrom kernel; a traced
// one runs the instrumented stepper under a "route.round" span that keeps
// the segment's hop tail. Both stop at the same place with the same
// metering.
func (r *Router) walkSegment(w *flatgraph.WalkState, s, t graph.NodeID, fs flatgraph.Seq, bound int, room int64, sp *trace.Span) error {
	if !sp.Recording() {
		return r.flat.RouteWalkFrom(w, s, t, fs, room)
	}
	rsp := sp.Child("route.round")
	defer rsp.End()
	rsp.SetAttr(trace.Int("bound", int64(bound)), trace.Int("seq_len", int64(fs.Length)))
	st, err := r.flat.ResumeRouteStepper(*w, s, t, fs)
	if err != nil {
		return err
	}
	st.Instrument(HopSink(rsp, s, t))
	st.Run(room)
	*w = st.State()
	if w.Done {
		rsp.SetAttr(trace.Bool("success", w.Success))
	}
	rsp.SetAttr(trace.Int("hops", w.Hops))
	return st.Err()
}

// HopSink returns the flat stepper sink that records each hop of an s→t
// walk on sp's hop ring, stamped with the header size the reference
// serialization would put on the wire at that index. It is nil when sp is
// not recording, which keeps a stepper on its uninstrumented path.
func HopSink(sp *trace.Span, s, t graph.NodeID) flatgraph.HopSink {
	if !sp.Recording() {
		return nil
	}
	return func(node graph.NodeID, index int64, backward bool) {
		sp.Hop(trace.HopEvent{
			Node:       int64(node),
			Index:      index,
			HeaderBits: int32(netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: index}.Bits()),
			Backward:   backward,
		})
	}
}

// foldFlat folds a delivered flat round into res exactly as the reference
// round does: same RoundStat, same hop totals, same header-size and
// memory-metering statistics, same forward-steps reconstruction.
func (r *Router) foldFlat(res *Result, w *flatgraph.WalkState, s, t graph.NodeID, bound, seqLen int) RoundStat {
	res.Hops += w.Hops
	r.foldMetering(res, w, s, t)
	stat := RoundStat{Bound: bound, SeqLen: seqLen, Hops: w.Hops, Outcome: netsim.StatusFailure}
	if w.Success {
		stat.Outcome = netsim.StatusSuccess
		// Same reconstruction as the reference: forward steps f and back
		// steps b satisfy f + b = hops and b = f - indexAtDelivery.
		res.ForwardSteps = (w.Hops + w.DeliveredIndex) / 2
	}
	return stat
}

// foldMetering merges a flat round's header and memory peaks into res. The
// largest header any activation observes carries the round's peak index;
// src, dst, and the dir/status byte are size-constant across the round, so
// one evaluation at the peak index reproduces the reference's
// per-activation maximum.
func (r *Router) foldMetering(res *Result, w *flatgraph.WalkState, s, t graph.NodeID) {
	hb := netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: w.MaxIndex}.Bits()
	res.MaxHeaderBits = max(res.MaxHeaderBits, hb)
	res.PeakMemoryBits = max(res.PeakMemoryBits, w.PeakMemoryBits)
}

// exhaust stops a bounded walk without a verdict: res reports the hops so
// far, and its Cursor holds the walk — the in-flight round's hops kept
// apart in RoundHops, so the continued round folds in without double
// counting.
func (r *Router) exhaust(res *Result, w *flatgraph.WalkState, s, t graph.NodeID, bound, rounds int, reason ExhaustReason, sp *trace.Span) *Result {
	r.foldMetering(res, w, s, t)
	res.Cursor = &Cursor{
		Src: s, Dst: t, Bound: bound,
		Node: w.Node, InPort: w.InPort, At: r.flat.OriginalOf(w.Node),
		Index: w.Index, Backward: w.Backward, Success: w.Success,
		Hops: res.Hops, RoundHops: w.Hops, MaxIndex: w.MaxIndex,
		Rounds: rounds, MaxHeaderBits: res.MaxHeaderBits, PeakMemoryBits: res.PeakMemoryBits,
	}
	res.Hops += w.Hops
	res.Exhausted = reason
	res.Bound = bound
	if sp.Recording() {
		sp.Event("route.budget_exhausted",
			trace.String("reason", string(reason)),
			trace.Int("hops", res.Hops), trace.Int("bound", int64(bound)))
	}
	return res
}

// netsimRound runs one round on the netsim reference engine, for the
// configurations whose instrumentation the flat path does not replicate.
// delivered reports whether the source learned an outcome; with
// ConfirmRestart a round can end inconclusively (the confirmation leg
// exhausted its sequence), which the doubling loop treats like an
// uncovered failure.
func (r *Router) netsimRound(start, s, t graph.NodeID, seq ues.Sequence, bound int, res *Result, sp *trace.Span) (stat RoundStat, delivered bool, err error) {
	h := netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Status: netsim.StatusNone, Index: 1}
	eng := netsim.NewEngine(r.work,
		&routeHandler{seq: seq, originalOf: r.originalOf(), confirm: r.cfg.Confirm},
		r.engineOptions()...)
	out, err := eng.Run(start, 0, h, 2*int64(seq.Len())+8)
	stat = RoundStat{Bound: bound, SeqLen: seq.Len()}
	if out != nil {
		stat.Hops = out.Hops
		res.Hops += out.Hops
		res.MaxHeaderBits = max(res.MaxHeaderBits, out.MaxHeaderBits)
		res.PeakMemoryBits = max(res.PeakMemoryBits, out.PeakMemoryBits)
	}
	if err != nil {
		return stat, false, err
	}
	if !out.Delivered {
		if r.cfg.Confirm == ConfirmRestart {
			// Inconclusive: the restart confirmation ran out of sequence
			// before reaching s.
			return stat, false, nil
		}
		return stat, false, fmt.Errorf("route: message dropped at %d", out.Final)
	}
	stat.Outcome = out.Header.Status
	if out.Header.Status == netsim.StatusSuccess {
		// Reconstruct the exploration index at which t was found.
		// Backtrack: forward steps f and back steps b satisfy f + b = hops
		// and b = f - indexAtDelivery, so f = (hops + index) / 2. Restart:
		// the confirmation leg took index-1 steps after the turnaround
		// reset the index to 1, so f = hops - (index - 1).
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
	return stat, true, nil
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
	if r.cfg.DisableCertificates || r.flat == nil || r.flat.Components().Count() == 1 {
		return nil
	}
	sc, tc, ok := r.components(start, t)
	if !ok || tc == sc {
		return nil
	}
	return &Certificate{SrcComponent: sc, DstComponent: tc, Components: r.flat.Components().Count()}
}

// components returns the snapshot's component ids of start and of t's
// entry gadget, -1 when t is not a node of the graph at all (unreachable
// by definition); ok is false without a snapshot (the no-reduction
// ablation).
func (r *Router) components(start, t graph.NodeID) (sc, tc int32, ok bool) {
	if r.flat == nil {
		return 0, 0, false
	}
	si, ok := r.flat.Index(start)
	if !ok {
		return 0, 0, false
	}
	comps := r.flat.Components()
	sc, tc = comps.Of(si), -1
	if te, ok := r.red.Entry(t); ok {
		if ti, ok := r.flat.Index(te); ok {
			tc = comps.Of(ti)
		}
	}
	return sc, tc, true
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

// flatConfig reports whether the configuration lets rounds run on the
// compiled flat walker: a snapshot exists and no netsim instrumentation or
// ablation is requested.
func (r *Router) flatConfig() bool {
	return r.flat != nil && !r.cfg.DisableFlat && !r.cfg.NoDegreeReduction &&
		r.cfg.Confirm == ConfirmBacktrack && r.cfg.Trace == nil &&
		r.cfg.FaultHook == nil && !r.cfg.WireFormat && r.cfg.MemoryBudgetBits == 0
}

// flatSeq decides whether a round over seq may run on the compiled flat
// walker, and returns it as a prefix of the router's direction stream if
// so. The reference engine keeps the round whenever its instrumentation is
// requested or the sequence is not the stream's: not PRF-backed, not base
// 3, or of another seed.
func (r *Router) flatSeq(seq ues.Sequence) (flatgraph.Seq, bool) {
	if !r.flatConfig() {
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
	sc, tc, ok := r.components(start, t)
	return ok && sc == tc
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
