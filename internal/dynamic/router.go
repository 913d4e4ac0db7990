package dynamic

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/trace"
	"repro/internal/ues"
)

// ErrRoundsExhausted reports that the router hit its round budget without
// obtaining a verdict — the dynamic analogue of route.ErrSequenceExhausted,
// reachable only when the schedule keeps breaking rounds faster than the
// walk completes them (e.g. a relentless adversary). It is an explicit
// error, never a wrong verdict.
var ErrRoundsExhausted = errors.New("dynamic: round budget exhausted without a verdict")

// Config parameterizes a dynamic Router. The zero value is usable: paper
// defaults for the protocol, and the world advancing every DefaultHopsPerEpoch
// hops.
type Config struct {
	// Seed selects the exploration sequence family T_n (shared protocol
	// configuration, identical for every node and every snapshot).
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	LengthFactor int
	// KnownN, if > 0, fixes the sequence bound instead of doubling.
	KnownN int
	// MaxBound caps the doubling loop (0 = 4·|V(G′)| of the snapshot
	// current at each round start).
	MaxBound int
	// HopsPerEpoch is how many message hops elapse between epochs — the
	// coupling between protocol time and topology time. 0 = DefaultHopsPerEpoch;
	// negative freezes the clock (the world never advances).
	HopsPerEpoch int
	// MaxRounds bounds the retry loop (0 = DefaultMaxRounds).
	MaxRounds int
	// Lookahead bounds the probe's next-link scan, in hops of G′
	// (0 = DefaultLookahead).
	Lookahead int
	// DisableFlat drives the walk through the netsim reference stepper and
	// the stateless per-node handler instead of the compiled flat stepper.
	// The two are hop-for-hop identical (pinned by the differential
	// tests); the reference path exists for those tests and debugging.
	// Bounded queries (a budget, deadline or cursor) require the flat path.
	DisableFlat bool
	// DisableCertificates skips the O(1) component-index check at route
	// start, forcing even provably-unreachable pairs to burn the walk.
	// Verdicts are identical either way; the flag exists for differential
	// tests and for measuring the full doubling burn.
	DisableCertificates bool
}

// Defaults for the dynamics knobs.
const (
	DefaultHopsPerEpoch = 64
	DefaultMaxRounds    = 64
	DefaultLookahead    = 32
)

func (c Config) hopsPerEpoch() int {
	if c.HopsPerEpoch == 0 {
		return DefaultHopsPerEpoch
	}
	if c.HopsPerEpoch < 0 {
		return 0
	}
	return c.HopsPerEpoch
}

func (c Config) maxRounds() int {
	if c.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return c.MaxRounds
}

func (c Config) lookahead() int {
	if c.Lookahead <= 0 {
		return DefaultLookahead
	}
	return c.Lookahead
}

// Result is the outcome of a dynamic route.
type Result struct {
	// Status is StatusSuccess if (a gadget of) t was physically reached,
	// StatusFailure if the §4 closure check certified, on the topology at
	// decision time, that t lies outside the source component.
	Status netsim.Status
	// Hops is the total message hops across all rounds and snapshots.
	Hops int64
	// Rounds is the number of rounds run (including aborted ones).
	Rounds int
	// AbortedRounds counts rounds abandoned because topology change broke
	// the confirmation leg (the walk resumed on a snapshot where the
	// backtrack could not complete).
	AbortedRounds int
	// Bound is the sequence bound of the terminal round.
	Bound int
	// Epochs is how many epochs the world advanced during this route.
	Epochs int
	// Recompiles is how many degree-reduction + snapshot recompiles the
	// route triggered (cache misses; epochs that left the topology
	// untouched cost nothing).
	Recompiles int
	// Resumptions counts mid-walk snapshot migrations: the stateless
	// header carried onto a freshly compiled topology.
	Resumptions int
	// MaxHeaderBits is the largest serialized header observed — the
	// O(log n) overhead claim measured under dynamics.
	MaxHeaderBits int
	// Certificate is non-nil when a failure verdict was answered in O(1)
	// from the component index of the snapshot current at route start,
	// instead of by walking the doubling budget.
	Certificate *route.Certificate
	// Exhausted is non-empty when the walk stopped on a budget or deadline
	// instead of a verdict; Cursor then holds the resume position.
	Exhausted route.ExhaustReason
	// Cursor continues an exhausted walk in a later RouteQuery.
	Cursor *route.Cursor
}

// Router routes messages over an evolving World, advancing the walk
// hop-by-hop and the world every HopsPerEpoch hops. It holds no state
// between Route calls beyond what the World itself carries.
//
// Any number of Routers may drive one shared World concurrently: each
// walk runs on the immutable snapshot current at its last epoch boundary,
// and the World serializes epoch advances and shares recompiles. On a
// shared world the per-Result Epochs/Recompiles counters attribute
// whatever happened during the route, which may include epochs triggered
// by concurrent walks.
type Router struct {
	w    *World
	dirs *flatgraph.Stream // directions of cfg.Seed, shared across snapshots
	cfg  Config
}

// NewRouter builds a dynamic router over w. dirs is the direction stream
// of cfg.Seed its flat walks read: pass the stream of the compiled engine
// that builds one router per request, so no request re-derives a chunk;
// nil (or a stream of another seed) gives the router a stream of its own.
func NewRouter(w *World, cfg Config, dirs *flatgraph.Stream) *Router {
	return &Router{w: w, dirs: flatgraph.StreamFor(cfg.Seed, dirs), cfg: cfg}
}

// World returns the world this router drives.
func (r *Router) World() *World { return r.w }

// runState threads per-call accounting through the round loop. The epoch
// phase (hops since the last epoch boundary) deliberately carries across
// rounds: topology time is global, not per-round.
type runState struct {
	res        *Result
	sinceEpoch int
	sp         *trace.Span // current round's span; nil when unsampled

	// Bounded-work state. ctx carries the deadline (nil = never expires,
	// checked at round starts and epoch boundaries, never per hop); budget
	// is the hops remaining when armed. resume holds the caller's cursor
	// until the first round consumes it. When a round stops early it sets
	// exhausted and mints cursor instead of returning a verdict.
	ctx       context.Context
	armed     bool
	budget    int64
	resume    *route.Cursor
	exhausted route.ExhaustReason
	cursor    *route.Cursor
	chaos     *chaos.Injector
}

// Route sends a message from s to t over the evolving topology and
// returns the outcome learned at s. Routing to t == s succeeds trivially.
// The round structure mirrors the static router's doubling loop, with two
// dynamic additions: a round whose confirmation is broken by churn is
// retried rather than failed, and a failed round's verdict is only
// accepted after the closure check passes on the instantaneous topology.
func (r *Router) Route(s, t graph.NodeID) (*Result, error) {
	return r.RouteQuery(route.Query{Src: s, Dst: t})
}

// RouteQuery answers q over the evolving topology — the one entry point
// behind plain, traced, bounded and resumed dynamic walks.
//
// Span records one child span per round, with per-hop walk events and
// timed events for epoch advances, snapshot resumptions, and aborted
// rounds; tracing keeps the walk on the compiled flat stepper. Budget and
// Ctx bound the work: the walk stops after Budget message hops or when
// Ctx expires — deadlines are checked at round starts and epoch
// boundaries, never per hop — returning a Result with Exhausted set and a
// Cursor that continues the walk in a later query exactly where it
// stopped. A cursor minted on a snapshot the world has since recompiled
// re-enters at the canonical gadget of the original node it was at, the
// same rule a mid-walk epoch recompile applies. Bounded queries require
// the compiled flat path; DisableFlat configurations get
// route.ErrBudgetUnsupported.
func (r *Router) RouteQuery(q route.Query) (*Result, error) {
	ctx, s, t, maxHops, cur, sp := q.Ctx, q.Src, q.Dst, q.Budget, q.Cursor, q.Span
	if q.Bounded() && r.cfg.DisableFlat {
		return nil, fmt.Errorf("%w (DisableFlat)", route.ErrBudgetUnsupported)
	}
	if !r.w.HasNode(s) {
		return nil, fmt.Errorf("dynamic: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	res := &Result{}
	if s == t {
		res.Status = netsim.StatusSuccess
		return res, nil
	}
	if cur != nil {
		if cur.Src != s || cur.Dst != t {
			return nil, fmt.Errorf("%w: cursor is for %d->%d", route.ErrBadCursor, cur.Src, cur.Dst)
		}
		if cur.Bound < 1 || cur.Index < 0 {
			return nil, fmt.Errorf("%w: bound %d, index %d", route.ErrBadCursor, cur.Bound, cur.Index)
		}
		res.Hops = cur.Hops
		res.Rounds = cur.Rounds
		res.AbortedRounds = cur.AbortedRounds
		res.Epochs = cur.Epochs
		res.Resumptions = cur.Resumptions
		res.MaxHeaderBits = cur.MaxHeaderBits
	}
	rt := &runState{res: res, ctx: ctx, armed: maxHops > 0, budget: maxHops,
		resume: cur, chaos: r.w.Chaos()}
	if cur != nil {
		rt.sinceEpoch = cur.SinceEpoch
	}
	// Warm the compile cache before counting: Recompiles measures what the
	// topology churn cost this route, not the unavoidable initial compile.
	red, flat, err := r.w.Compiled()
	if err != nil {
		return res, err
	}
	recompBase := r.w.Recompiles()
	defer func() { res.Recompiles = int(r.w.Recompiles() - recompBase) }()

	// The O(1) reachability answer, from the component index of the
	// snapshot current right now. A resumed walk skips it: its budget was
	// already committed to walking, and the walk's own verdict is sound.
	if cur == nil && !r.cfg.DisableCertificates {
		if cert := r.certificate(red, flat, s, t); cert != nil {
			res.Status = netsim.StatusFailure
			res.Certificate = cert
			if sp.Recording() {
				sp.Event("dynamic.certificate",
					trace.Int("src_component", int64(cert.SrcComponent)),
					trace.Int("dst_component", int64(cert.DstComponent)),
					trace.Int("components", int64(cert.Components)),
					trace.Int("version", int64(cert.Version)))
			}
			return res, nil
		}
	}

	bound := 0
	round := 1
	maxRounds := r.cfg.maxRounds()
	if cur != nil {
		bound = cur.Bound
		if round = cur.Rounds; round < 1 {
			round = 1
		}
		if maxRounds < round {
			// The interrupted round always gets to finish, even when the
			// resuming router's round budget is tighter than the minter's.
			maxRounds = round
		}
	}
	for ; round <= maxRounds; round++ {
		if rt.resume == nil {
			var err error
			bound, err = r.nextBound(bound)
			if err != nil {
				return res, err
			}
			res.Rounds++
		}
		res.Bound = bound
		rt.sp = sp.Child("dynamic.round")
		if rt.sp.Recording() {
			rt.sp.SetAttr(trace.Int("round", int64(round)), trace.Int("bound", int64(bound)))
		}
		st, delivered, err := r.runRound(s, t, bound, rt)
		if rt.sp.Recording() {
			rt.sp.SetAttr(trace.Bool("delivered", delivered), trace.String("status", st.String()))
			rt.sp.End()
		}
		if err != nil {
			return res, err
		}
		if rt.exhausted != "" {
			res.Exhausted = rt.exhausted
			res.Cursor = rt.cursor
			return res, nil
		}
		if !delivered {
			res.AbortedRounds++
			continue
		}
		if st == netsim.StatusSuccess {
			res.Status = st
			return res, nil
		}
		if st == netsim.StatusFailure {
			definitive, err := r.definitiveFailure(s, t, bound)
			if err != nil {
				return res, err
			}
			if definitive {
				res.Status = netsim.StatusFailure
				return res, nil
			}
		}
	}
	return res, fmt.Errorf("%w: %d rounds", ErrRoundsExhausted, maxRounds)
}

// nextBound advances the doubling schedule, mirroring the static router:
// start at 4, double, clamp at MaxBound (default 4·|V(G′)| of the current
// snapshot). Under KnownN the bound is fixed. A shrinking graph never
// shrinks the bound below its previous value.
func (r *Router) nextBound(prev int) (int, error) {
	if r.cfg.KnownN > 0 {
		return r.cfg.KnownN, nil
	}
	maxBound := r.cfg.MaxBound
	if maxBound <= 0 {
		_, flat, err := r.w.Compiled()
		if err != nil {
			return 0, err
		}
		maxBound = 4 * flat.NumNodes()
	}
	b := 4
	if prev > 0 {
		b = prev * 2
	}
	if b > maxBound {
		b = maxBound
	}
	if b < prev {
		b = prev
	}
	return b, nil
}

// runRound executes one round at the given bound, interleaving epochs.
// delivered=false means the round was broken by topology change (no
// verdict; the caller retries).
func (r *Router) runRound(s, t graph.NodeID, bound int, rt *runState) (netsim.Status, bool, error) {
	if r.cfg.DisableFlat {
		return r.runRoundRef(s, t, bound, rt)
	}
	return r.runRoundFlat(s, t, bound, rt)
}

// seqLen is L_bound for this protocol instance.
func (r *Router) seqLen(bound int) int {
	return ues.Length(bound, r.cfg.LengthFactor)
}

// roundHopCap bounds one round's total hops across resumptions. A clean
// round takes at most 2L+2 hops (the index is monotone in each phase);
// the slack absorbs resumption turbulence, and hitting the cap aborts the
// round rather than erroring.
func roundHopCap(L int) int64 { return 4*int64(L) + 16 }

// flatStepperAt builds a (possibly resumed) flat stepper entering at the
// canonical gadget of original node at, carrying the given header state.
func flatStepperAt(red *degred.Reduced, flat *flatgraph.Graph, at, s, t graph.NodeID,
	seq flatgraph.Seq, index int64, backward, success bool) (*flatgraph.RouteStepper, error) {
	entry, ok := red.Entry(at)
	if !ok {
		return nil, fmt.Errorf("dynamic: %w: %d", graph.ErrNodeNotFound, at)
	}
	dense, ok := flat.Index(entry)
	if !ok {
		return nil, fmt.Errorf("dynamic: gadget %d missing from snapshot", entry)
	}
	return flat.ResumeRouteStepper(walkState(dense, 0, index, backward, success), s, t, seq)
}

// walkState is a flat round state at a position with the given header and
// no hops yet: each stepper of a round counts its own segment's hops.
func walkState(node, inPort int32, index int64, backward, success bool) flatgraph.WalkState {
	return flatgraph.WalkState{Node: node, InPort: inPort, Index: index, Backward: backward,
		RouteOutcome: flatgraph.RouteOutcome{Success: success}}
}

// runRoundFlat drives the round on the compiled flat stepper.
func (r *Router) runRoundFlat(s, t graph.NodeID, bound int, rt *runState) (netsim.Status, bool, error) {
	L := r.seqLen(bound)
	seq := r.dirs.Seq(L)
	red, flat, err := r.w.Compiled()
	if err != nil {
		return netsim.StatusNone, false, err
	}
	var (
		st      *flatgraph.RouteStepper
		segBase int64 // hops accumulated in completed segments
		maxIdx  = int64(1)
	)
	if cur := rt.resume; cur != nil {
		rt.resume = nil
		segBase = cur.RoundHops
		if cur.MaxIndex > maxIdx {
			maxIdx = cur.MaxIndex
		}
		if cur.Version == r.w.Version() {
			// Same topology the cursor was minted on: the dense position is
			// still valid, re-enter exactly.
			st, err = flat.ResumeRouteStepper(
				walkState(cur.Node, cur.InPort, cur.Index, cur.Backward, cur.Success), s, t, seq)
		} else {
			// The world moved on: re-enter at the canonical gadget of the
			// original node, the same rule a mid-walk recompile applies.
			st, err = flatStepperAt(red, flat, cur.At, s, t, seq,
				cur.Index, cur.Backward, cur.Success)
			if err == nil {
				rt.res.Resumptions++
			}
		}
		if err != nil {
			return netsim.StatusNone, false, fmt.Errorf("%w: %v", route.ErrBadCursor, err)
		}
		if rt.sp.Recording() {
			rt.sp.Event("dynamic.cursor_resume",
				trace.Int("index", cur.Index), trace.Bool("backward", cur.Backward),
				trace.Int("round_hops", cur.RoundHops))
		}
	} else {
		st, err = flatStepperAt(red, flat, s, s, t, seq, 1, false, false)
		if err != nil {
			return netsim.StatusNone, false, err
		}
	}
	sink := route.HopSink(rt.sp, s, t)
	if sink != nil {
		st.Instrument(sink)
	}
	var (
		prevHops int64
		hopCap   = roundHopCap(L)
		perEpoch = r.cfg.hopsPerEpoch()
		armed    = rt.armed
		budget   = rt.budget
		chz      = rt.chaos
	)
	finishHops := func() {
		rt.res.Hops += segBase + st.Hops()
		rt.budget = budget
	}
	// exhaust stops the round without a verdict: fold the partial round's
	// hops into the result, and mint the cursor that re-enters this exact
	// position. Hops/RoundHops stay split so the continued round's total
	// folds in without double counting.
	exhaust := func(reason route.ExhaustReason) {
		if idx := st.Index(); idx > maxIdx {
			maxIdx = idx
		}
		node, inPort := st.Position()
		completed := rt.res.Hops
		roundHops := segBase + st.Hops()
		finishHops()
		r.mergeHeaderBits(rt, s, t, maxIdx)
		rt.exhausted = reason
		rt.cursor = &route.Cursor{
			Src: s, Dst: t, Bound: bound,
			Node: node, InPort: inPort, At: flat.OriginalOf(node),
			Index: st.Index(), Backward: st.Backward(), Success: st.Success(),
			Version:       r.w.Version(),
			Hops:          completed,
			RoundHops:     roundHops,
			MaxIndex:      maxIdx,
			Rounds:        rt.res.Rounds,
			AbortedRounds: rt.res.AbortedRounds,
			Epochs:        rt.res.Epochs,
			Resumptions:   rt.res.Resumptions,
			SinceEpoch:    rt.sinceEpoch,
			MaxHeaderBits: rt.res.MaxHeaderBits,
		}
		if rt.sp.Recording() {
			rt.sp.Event("dynamic.exhausted", trace.String("reason", string(reason)),
				trace.Int("round_hops", roundHops), trace.Int("index", rt.cursor.Index))
		}
	}
	// Deadlines are checked at round starts and epoch boundaries, never per
	// hop: a frozen-clock walk costs one Err read per round.
	if rt.ctx != nil && rt.ctx.Err() != nil {
		exhaust(route.ExhaustDeadline)
		return netsim.StatusNone, false, nil
	}
	if armed && budget <= 0 {
		// The previous round spent the budget on its last hop: a round's
		// first activation always hops, so stop before it.
		exhaust(route.ExhaustBudget)
		return netsim.StatusNone, false, nil
	}
	for !st.Done() {
		if idx := st.Index(); idx > maxIdx {
			maxIdx = idx
		}
		st.Step()
		h := st.Hops()
		if h == prevHops {
			continue // terminal activation: no hop
		}
		prevHops = h
		rt.sinceEpoch++
		if chz != nil {
			chz.HopDelay()
		}
		if segBase+h > hopCap {
			finishHops()
			r.mergeHeaderBits(rt, s, t, maxIdx)
			if rt.sp.Recording() {
				rt.sp.Event("dynamic.round_abort", trace.String("reason", "hop_cap"),
					trace.Int("hops", segBase+h))
			}
			return netsim.StatusNone, false, nil
		}
		if perEpoch > 0 && rt.sinceEpoch >= perEpoch {
			rt.sinceEpoch = 0
			ver := r.w.Version()
			node, _ := st.Position()
			probe := Probe{
				Active:   true,
				At:       flat.OriginalOf(node),
				nextLink: r.flatLookahead(flat, st, s, t, seq),
			}
			if err := r.w.Advance(probe); err != nil {
				finishHops()
				return netsim.StatusNone, false, err
			}
			rt.res.Epochs++
			if rt.sp.Recording() {
				rt.sp.Event("dynamic.epoch",
					trace.Int("epoch", int64(rt.res.Epochs)), trace.Int("hops", segBase+h))
			}
			if r.w.Version() != ver {
				red2, flat2, err := r.w.Compiled()
				if err != nil {
					finishHops()
					return netsim.StatusNone, false, err
				}
				node, _ = st.Position()
				cur := flat.OriginalOf(node)
				st2, err := flatStepperAt(red2, flat2, cur, s, t, seq, st.Index(), st.Backward(), st.Success())
				if err != nil {
					finishHops()
					return netsim.StatusNone, false, err
				}
				segBase += st.Hops()
				prevHops = 0
				st, red, flat = st2, red2, flat2
				if sink != nil {
					st.Instrument(sink)
				}
				rt.res.Resumptions++
				if rt.sp.Recording() {
					rt.sp.Event("dynamic.resume",
						trace.Int("version", int64(r.w.Version())),
						trace.Int("at", int64(cur)),
						trace.Int("index", st.Index()),
						trace.Bool("backward", st.Backward()))
				}
			}
			if rt.ctx != nil && rt.ctx.Err() != nil {
				exhaust(route.ExhaustDeadline)
				return netsim.StatusNone, false, nil
			}
		}
		if armed {
			// The budget pays for message hops, nothing else. Decrementing
			// after the epoch work keeps the epoch clock identical between a
			// split and an uninterrupted walk. The activation delivering the
			// verdict performs no hop, so a budget spent by the hop that
			// lands on the source still lets the walk take it.
			budget--
			if budget <= 0 && !st.Delivering() {
				exhaust(route.ExhaustBudget)
				return netsim.StatusNone, false, nil
			}
		}
	}
	finishHops()
	r.mergeHeaderBits(rt, s, t, maxIdx)
	if err := st.Err(); err != nil {
		if errors.Is(err, flatgraph.ErrUnwound) {
			// Churn redirected the confirmation until it unwound its whole
			// index budget without finding s: no verdict, retry the round.
			if rt.sp.Recording() {
				rt.sp.Event("dynamic.round_abort", trace.String("reason", "confirmation_unwound"))
			}
			return netsim.StatusNone, false, nil
		}
		return netsim.StatusNone, false, fmt.Errorf("dynamic: flat walk: %w", err)
	}
	if st.Success() {
		return netsim.StatusSuccess, true, nil
	}
	return netsim.StatusFailure, true, nil
}

// mergeHeaderBits folds a round's peak header size into the result. The
// largest header any activation observes carries the round's peak index;
// src, dst, and the dir/status byte are size-constant, so one evaluation
// at the peak reproduces the reference's per-activation maximum (the same
// reconstruction the static flat round uses).
func (r *Router) mergeHeaderBits(rt *runState, s, t graph.NodeID, maxIdx int64) {
	hb := netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: maxIdx}.Bits()
	if hb > rt.res.MaxHeaderBits {
		rt.res.MaxHeaderBits = hb
	}
}

// flatLookahead returns the lazy next-link computation for the probe: it
// clones the walk's stateless coordinates into a throwaway stepper and
// scans ahead on the current snapshot for the first hop that crosses
// between gadgets of different original nodes — the next real link the
// message will ride. (Under parallel edges the adversary cuts one link
// between that node pair, not necessarily the walk's exact copy.)
func (r *Router) flatLookahead(flat *flatgraph.Graph, st *flatgraph.RouteStepper,
	s, t graph.NodeID, seq flatgraph.Seq) func() (Edge, bool) {
	return func() (Edge, bool) {
		la, err := flat.ResumeRouteStepper(st.State(), s, t, seq)
		if err != nil {
			return Edge{}, false
		}
		prev, _ := st.Position()
		for k := 0; k < r.cfg.lookahead(); k++ {
			if la.Step() {
				return Edge{}, false
			}
			cur, _ := la.Position()
			if ou, ov := flat.OriginalOf(prev), flat.OriginalOf(cur); ou != ov {
				if ov < ou {
					ou, ov = ov, ou
				}
				return Edge{U: ou, V: ov}, true
			}
			prev = cur
		}
		return Edge{}, false
	}
}

// runRoundRef drives the round on the netsim reference engine: the
// stateless per-node handler behind a token stepper, with the carried
// header re-injected into a fresh engine after each snapshot change.
func (r *Router) runRoundRef(s, t graph.NodeID, bound int, rt *runState) (netsim.Status, bool, error) {
	p := &ues.Pseudorandom{Seed: r.cfg.Seed, N: bound, Base: 3, LengthFactor: r.cfg.LengthFactor}
	seq := p.Compiled()
	L := seq.Len()
	red, flat, err := r.w.Compiled()
	if err != nil {
		return netsim.StatusNone, false, err
	}
	mkStepper := func(red *degred.Reduced, at graph.NodeID, h netsim.Header) (*netsim.Stepper, error) {
		work := red.Graph()
		eng := netsim.NewEngine(work,
			route.StepHandler(seq, projector(red)),
			netsim.WithMemoryBudget(route.DefaultMemoryBudget(work.NumNodes())))
		entry, ok := red.Entry(at)
		if !ok {
			return nil, fmt.Errorf("dynamic: %w: %d", graph.ErrNodeNotFound, at)
		}
		return eng.Stepper(entry, 0, h, 2*int64(L)+8)
	}
	st, err := mkStepper(red, s, netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Status: netsim.StatusNone, Index: 1})
	if err != nil {
		return netsim.StatusNone, false, err
	}
	var (
		segBase  int64
		prevHops int64
		hopCap   = roundHopCap(L)
		perEpoch = r.cfg.hopsPerEpoch()
	)
	finish := func() {
		rt.res.Hops += segBase + st.Result().Hops
		if hb := st.Result().MaxHeaderBits; hb > rt.res.MaxHeaderBits {
			rt.res.MaxHeaderBits = hb
		}
	}
	for !st.Done() {
		if h := st.Header(); h.Dir == netsim.Backward && h.Index < 1 {
			// A resumed confirmation unwound its whole budget somewhere
			// other than the source; the handler has no step left to undo.
			// Abort the round (the flat path reports ErrUnwound here).
			at, _ := st.At()
			if o, ok := red.Original(at); !ok || o != s {
				finish()
				return netsim.StatusNone, false, nil
			}
		}
		st.Step()
		h := st.Result().Hops
		if h == prevHops {
			continue
		}
		prevHops = h
		rt.sinceEpoch++
		if segBase+h > hopCap {
			finish()
			return netsim.StatusNone, false, nil
		}
		if perEpoch > 0 && rt.sinceEpoch >= perEpoch {
			rt.sinceEpoch = 0
			ver := r.w.Version()
			probe, perr := r.refProbe(red, flat, st, s, t, bound)
			if perr != nil {
				finish()
				return netsim.StatusNone, false, perr
			}
			if err := r.w.Advance(probe); err != nil {
				finish()
				return netsim.StatusNone, false, err
			}
			rt.res.Epochs++
			if r.w.Version() != ver {
				red2, flat2, err := r.w.Compiled()
				if err != nil {
					finish()
					return netsim.StatusNone, false, err
				}
				at, _ := st.At()
				cur, ok := red.Original(at)
				if !ok {
					cur = at
				}
				hdr := st.Header()
				if hb := st.Result().MaxHeaderBits; hb > rt.res.MaxHeaderBits {
					rt.res.MaxHeaderBits = hb
				}
				segBase += st.Result().Hops
				st2, err := mkStepper(red2, cur, hdr)
				if err != nil {
					rt.res.Hops += segBase
					return netsim.StatusNone, false, err
				}
				prevHops = 0
				st, red, flat = st2, red2, flat2
				rt.res.Resumptions++
			}
		}
	}
	finish()
	out := st.Result()
	if err := st.Err(); err != nil {
		if errors.Is(err, netsim.ErrHopBudget) {
			return netsim.StatusNone, false, nil // churn turbulence: retry round
		}
		return netsim.StatusNone, false, fmt.Errorf("dynamic: reference walk: %w", err)
	}
	if !out.Delivered {
		return netsim.StatusNone, false, fmt.Errorf("dynamic: message dropped at %d", out.Final)
	}
	return out.Header.Status, true, nil
}

// refProbe builds the probe for the reference path. The lookahead runs on
// the flat snapshot of the same reduced graph (identical structure), so
// both execution paths expose identical adversary semantics.
func (r *Router) refProbe(red *degred.Reduced, flat *flatgraph.Graph, st *netsim.Stepper,
	s, t graph.NodeID, bound int) (Probe, error) {
	at, inPort := st.At()
	orig, ok := red.Original(at)
	if !ok {
		orig = at
	}
	dense, ok := flat.Index(at)
	if !ok {
		return Probe{Active: true, At: orig}, nil
	}
	h := st.Header()
	seq := r.dirs.Seq(r.seqLen(bound))
	la, err := flat.ResumeRouteStepper(
		walkState(dense, int32(inPort), h.Index, h.Dir == netsim.Backward, h.Status == netsim.StatusSuccess), s, t, seq)
	if err != nil {
		return Probe{Active: true, At: orig}, nil
	}
	return Probe{
		Active:   true,
		At:       orig,
		nextLink: r.flatLookahead(flat, la, s, t, seq),
	}, nil
}

// projector returns the gadget-to-original projection of a reduction.
func projector(red *degred.Reduced) func(graph.NodeID) graph.NodeID {
	return func(v graph.NodeID) graph.NodeID {
		if o, ok := red.Original(v); ok {
			return o
		}
		return v
	}
}

// certificate answers the reachability question in O(1) from the snapshot's
// memoized component index (flatgraph.Components, rebuilt lazily per
// compiled snapshot, so the index survives epoch recompiles at the price of
// one union-find per topology version). A non-nil certificate proves s and
// t lie in different components of the snapshot current at decision time —
// the same decision-time semantics as definitiveFailure, precomputed.
//
// Like the static router, certificates only fire on multi-component
// snapshots: on a single-component snapshot every existing target is
// reachable, and a name with no gadget is only provably absent once the
// walk covers the component. The Count()==1 early-out is what keeps the
// shared-world hot path at two loads.
func (r *Router) certificate(red *degred.Reduced, flat *flatgraph.Graph, s, t graph.NodeID) *route.Certificate {
	comps := flat.Components()
	if comps.Count() == 1 {
		return nil
	}
	se, ok := red.Entry(s)
	if !ok {
		return nil
	}
	si, ok := flat.Index(se)
	if !ok {
		return nil
	}
	sc := comps.Of(si)
	tc := int32(-1)
	if te, ok := red.Entry(t); ok {
		if ti, ok := flat.Index(te); ok {
			tc = comps.Of(ti)
		}
	}
	if tc == sc {
		return nil
	}
	snap := r.w.Snapshot()
	return &route.Certificate{
		SrcComponent: sc,
		DstComponent: tc,
		Components:   comps.Count(),
		Epoch:        snap.Epoch,
		Version:      snap.Version,
	}
}

// definitiveFailure runs the §4 closure check on the instantaneous
// topology: walk T_bound from the source entry, and accept the failure
// verdict only if the visited set is closed under neighbourhood (it equals
// the source component) and contains no gadget of t. This is what makes a
// dynamic failure verdict oracle-sound: it certifies unreachability on the
// topology as it stands at decision time.
//
// When the snapshot's component index puts t's entry gadget in the
// source's component, the check cannot pass — a closed visited set would
// be that component and so contain a gadget of t — and the answer comes in
// O(1) without walking.
func (r *Router) definitiveFailure(s, t graph.NodeID, bound int) (bool, error) {
	red, flat, err := r.w.Compiled()
	if err != nil {
		return false, err
	}
	entry, ok := red.Entry(s)
	if !ok {
		return false, fmt.Errorf("dynamic: cover check: %w: %d", graph.ErrNodeNotFound, s)
	}
	dense, ok := flat.Index(entry)
	if !ok {
		return false, fmt.Errorf("dynamic: cover check: gadget %d missing from snapshot", entry)
	}
	if te, ok := red.Entry(t); ok {
		if ti, ok := flat.Index(te); ok && flat.Components().Same(dense, ti) {
			return false, nil
		}
	}
	visited := make([]bool, flat.NumNodes())
	if _, err := flat.CoverWalk(dense, r.dirs.Seq(r.seqLen(bound)), visited, nil); err != nil {
		return false, fmt.Errorf("dynamic: cover check: %w", err)
	}
	if !flat.Closed(visited) {
		return false, nil
	}
	for i, vis := range visited {
		if vis && flat.OriginalOf(int32(i)) == t {
			return false, nil // t is reachable right now; not a failure
		}
	}
	return true, nil
}
