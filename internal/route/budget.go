package route

import (
	"context"
	"fmt"

	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// RouteBudgeted is Route with bounded work: the walk performs at most
// maxHops message hops (0 = unlimited) and honors ctx's deadline or
// cancellation, checked at round starts rather than per hop. When either
// limit strikes first the call returns with Status none, Exhausted set, and
// a Cursor from which a later call continues the walk exactly where it
// stopped — a walk split across continuations is hop-for-hop identical to
// the uninterrupted one (verdict, total hops, header bits; pinned by
// differential tests). Pass cur (from a prior exhausted Result) to
// continue, nil to start fresh. Only the compiled flat path supports
// bounded work; instrumented or ablated configs return
// ErrBudgetUnsupported.
func (r *Router) RouteBudgeted(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *Cursor) (*Result, error) {
	return r.routeBudgeted(ctx, s, t, maxHops, cur, nil)
}

// RouteBudgetedTraced is RouteBudgeted recording budget and resume events
// under sp. A nil (unsampled) span routes identically.
func (r *Router) RouteBudgetedTraced(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *Cursor, sp *trace.Span) (*Result, error) {
	return r.routeBudgeted(ctx, s, t, maxHops, cur, sp)
}

func (r *Router) routeBudgeted(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *Cursor, sp *trace.Span) (*Result, error) {
	if r.flat == nil || r.cfg.DisableFlat || r.cfg.Confirm != ConfirmBacktrack ||
		r.cfg.Trace != nil || r.cfg.FaultHook != nil || r.cfg.WireFormat ||
		r.cfg.MemoryBudgetBits != 0 {
		return nil, ErrBudgetUnsupported
	}
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &Result{Status: netsim.StatusSuccess}, nil
	}
	if cur != nil {
		if cur.Src != s || cur.Dst != t {
			return nil, fmt.Errorf("%w: cursor is for %d->%d, request is for %d->%d",
				ErrBadCursor, cur.Src, cur.Dst, s, t)
		}
		if cur.Version != 0 {
			return nil, fmt.Errorf("%w: dynamic-world cursor (version %d) on a static router",
				ErrBadCursor, cur.Version)
		}
		if cur.Bound < 1 || cur.Index < 0 {
			return nil, fmt.Errorf("%w: bound %d, index %d", ErrBadCursor, cur.Bound, cur.Index)
		}
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
	si, ok := r.flat.Index(start)
	if !ok {
		return nil, fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, start)
	}

	maxBound := r.cfg.MaxBound
	if maxBound <= 0 {
		maxBound = 4 * r.work.NumNodes()
	}
	growth := r.cfg.growth()
	armed := maxHops > 0
	remaining := maxHops

	// compiledSeq insists on the PRF-backed base-3 form budgeted rounds run
	// on; a custom SequenceFactory that is not PRF-backed cannot be
	// budgeted.
	compiledSeq := func(bound int) (flatgraph.Seq, error) {
		fs, ok := r.flatSeq(r.sequence(bound))
		if !ok {
			return flatgraph.Seq{}, ErrBudgetUnsupported
		}
		return fs, nil
	}

	var (
		st        *flatgraph.RouteStepper
		bound     int
		seq       flatgraph.Seq
		roundBase int64 // hops of the current round spent in earlier continuations
		maxIdx    int64 = 1
		rounds    int   // rounds started, across all continuations
	)
	if cur != nil {
		bound = cur.Bound
		if seq, err = compiledSeq(bound); err != nil {
			return nil, err
		}
		st, err = r.flat.ResumeRouteStepper(cur.Node, cur.InPort, s, t, seq, cur.Index, cur.Backward, cur.Success)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCursor, err)
		}
		roundBase = cur.RoundHops
		if cur.MaxIndex > maxIdx {
			maxIdx = cur.MaxIndex
		}
		res.Hops = cur.Hops
		res.MaxHeaderBits = cur.MaxHeaderBits
		rounds = cur.Rounds
		if sp.Recording() {
			sp.Event("route.cursor_resume",
				trace.Int("bound", int64(bound)), trace.Int("index", cur.Index),
				trace.Int("round_hops", cur.RoundHops))
		}
	} else {
		bound = 4
		if r.cfg.KnownN > 0 {
			bound = r.cfg.KnownN
		} else if bound > maxBound {
			bound = maxBound
		}
		if seq, err = compiledSeq(bound); err != nil {
			return nil, err
		}
		if st, err = r.flat.RouteStepper(si, s, t, seq); err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		rounds = 1
	}

	// exhaust snapshots the walk into a resumable cursor. res.Hops still
	// holds only completed-round hops here; the in-flight round's hops are
	// reported in the Result but kept apart in the cursor so the continued
	// round folds in without double counting.
	exhaust := func(reason ExhaustReason) (*Result, error) {
		node, inPort := st.Position()
		if idx := st.Index(); idx > maxIdx {
			maxIdx = idx
		}
		if hb := (netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: maxIdx}).Bits(); hb > res.MaxHeaderBits {
			res.MaxHeaderBits = hb
		}
		res.Cursor = &Cursor{
			Src: s, Dst: t, Bound: bound,
			Node: node, InPort: inPort, At: r.flat.OriginalOf(node),
			Index: st.Index(), Backward: st.Backward(), Success: st.Success(),
			Hops: res.Hops, RoundHops: roundBase + st.Hops(), MaxIndex: maxIdx,
			Rounds: rounds, MaxHeaderBits: res.MaxHeaderBits,
		}
		res.Hops += roundBase + st.Hops()
		res.Exhausted = reason
		res.Bound = bound
		if sp.Recording() {
			sp.Event("route.budget_exhausted",
				trace.String("reason", string(reason)),
				trace.Int("hops", res.Hops), trace.Int("bound", int64(bound)))
		}
		return res, nil
	}

	for {
		// Deadlines are checked once per round (and once on resume entry),
		// never per hop — a round is the paper's unit of bounded work.
		if ctx != nil && ctx.Err() != nil {
			return exhaust(ExhaustDeadline)
		}
		for !st.Done() {
			if armed && remaining <= 0 {
				return exhaust(ExhaustBudget)
			}
			if idx := st.Index(); idx > maxIdx {
				maxIdx = idx
			}
			ph := st.Hops()
			st.Step()
			if st.Hops() != ph {
				remaining--
			}
		}
		if err := st.Err(); err != nil {
			return res, fmt.Errorf("route: flat walk: %w", err)
		}
		// Round complete: fold it into the result exactly as flatRound does.
		roundHops := roundBase + st.Hops()
		res.Hops += roundHops
		if hb := (netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: maxIdx}).Bits(); hb > res.MaxHeaderBits {
			res.MaxHeaderBits = hb
		}
		stat := RoundStat{Bound: bound, SeqLen: seq.Length, Hops: roundHops}
		res.Bound = bound
		if st.Success() {
			stat.Outcome = netsim.StatusSuccess
			res.Rounds = append(res.Rounds, stat)
			res.Status = netsim.StatusSuccess
			res.ForwardSteps = (roundHops + st.Index()) / 2
			return res, nil
		}
		stat.Outcome = netsim.StatusFailure
		if r.cfg.KnownN > 0 {
			// A single promised-bound round: its failure is the verdict.
			res.Rounds = append(res.Rounds, stat)
			res.Status = netsim.StatusFailure
			return res, nil
		}
		covered, err := r.covered(start, t, bound)
		if err != nil {
			res.Rounds = append(res.Rounds, stat)
			return res, err
		}
		stat.Covered = covered
		res.Rounds = append(res.Rounds, stat)
		if sp.Recording() {
			sp.Event("route.cover_check",
				trace.Int("bound", int64(bound)), trace.Bool("covered", covered))
		}
		if covered {
			res.Status = netsim.StatusFailure
			return res, nil
		}
		if bound >= maxBound {
			return res, fmt.Errorf("%w: bound %d", ErrSequenceExhausted, bound)
		}
		bound *= growth
		if bound > maxBound {
			bound = maxBound
		}
		if seq, err = compiledSeq(bound); err != nil {
			return res, err
		}
		if st, err = r.flat.RouteStepper(si, s, t, seq); err != nil {
			return res, fmt.Errorf("route: %w", err)
		}
		roundBase, maxIdx = 0, 1
		rounds++
	}
}
