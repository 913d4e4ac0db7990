package route

import (
	"fmt"

	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
)

// roundStepper is the per-round execution engine behind Walker: one Step
// per handler activation, terminating with hops, a delivery flag, and a
// status. The netsim token stepper is the reference implementation; the
// compiled flat stepper is the hot path, with identical step granularity.
type roundStepper interface {
	// Step advances one activation; it returns true when the round ended.
	Step() bool
	// Hops returns the edge traversals so far (final once the round ended).
	Hops() int64
	// Outcome reports the terminal state: delivered says whether the
	// source learned a verdict, status which verdict.
	Outcome() (status netsim.Status, delivered bool)
	// Final returns the node where the round ended (for drop diagnostics).
	Final() graph.NodeID
	// Err returns the terminal error, if any.
	Err() error
}

// netsimRound adapts netsim.Stepper to roundStepper.
type netsimRound struct{ st *netsim.Stepper }

func (r netsimRound) Step() bool          { return r.st.Step() }
func (r netsimRound) Hops() int64         { return r.st.Result().Hops }
func (r netsimRound) Err() error          { return r.st.Err() }
func (r netsimRound) Final() graph.NodeID { return r.st.Result().Final }
func (r netsimRound) Outcome() (netsim.Status, bool) {
	out := r.st.Result()
	return out.Header.Status, out.Delivered
}

// flatRoundStepper adapts flatgraph.RouteStepper to roundStepper.
type flatRoundStepper struct {
	st flatStepper
	g  *flatgraph.Graph
}

// flatStepper is the subset of flatgraph.RouteStepper the walker needs
// (kept as an interface only to avoid a direct struct dependency here; the
// concrete type comes from Router.flat).
type flatStepper interface {
	Step() bool
	Hops() int64
	Success() bool
	Err() error
	Position() (node, inPort int32)
}

func (r flatRoundStepper) Step() bool  { return r.st.Step() }
func (r flatRoundStepper) Hops() int64 { return r.st.Hops() }
func (r flatRoundStepper) Err() error  { return r.st.Err() }
func (r flatRoundStepper) Final() graph.NodeID {
	node, _ := r.st.Position()
	return r.g.ID(node)
}
func (r flatRoundStepper) Outcome() (netsim.Status, bool) {
	if r.st.Err() != nil {
		return netsim.StatusNone, false
	}
	if r.st.Success() {
		return netsim.StatusSuccess, true
	}
	return netsim.StatusFailure, true
}

// Walker is a step-at-a-time view of Route, used by the Corollary 2
// composition (package hybrid): the guaranteed router advances one message
// hop per Step so it can be interleaved with a probabilistic router.
type Walker struct {
	r        *Router
	s, t     graph.NodeID
	bound    int
	maxBound int
	round    roundStepper
	// completedHops accumulates hops from finished rounds; the current
	// round's hops live in the round stepper.
	completedHops int64
	status        netsim.Status
	done          bool
	err           error
}

// Walker returns a steppable guaranteed route from s to t, including the
// doubling outer loop. The inter-round coverage check runs locally and is
// not charged as steps (the walk cost dominates; see DESIGN.md).
func (r *Router) Walker(s, t graph.NodeID) (*Walker, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	w := &Walker{r: r, s: s, t: t, maxBound: r.cfg.MaxBound}
	if w.maxBound <= 0 {
		w.maxBound = 4 * r.work.NumNodes()
	}
	if s == t {
		w.done = true
		w.status = netsim.StatusSuccess
		return w, nil
	}
	w.bound = 4
	if r.cfg.KnownN > 0 {
		w.bound = r.cfg.KnownN
		w.maxBound = r.cfg.KnownN
	}
	if err := w.startRound(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Walker) startRound() error {
	start, err := w.r.entry(w.s)
	if err != nil {
		return err
	}
	seq := w.r.sequence(w.bound)
	if fs, ok := w.r.flatSeq(seq); ok {
		si, ok := w.r.flat.Index(start)
		if !ok {
			return fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, start)
		}
		st, err := w.r.flat.RouteStepper(si, w.s, w.t, fs)
		if err != nil {
			return err
		}
		w.round = flatRoundStepper{st: st, g: w.r.flat}
		return nil
	}
	h := netsim.Header{Src: w.s, Dst: w.t, Dir: netsim.Forward, Status: netsim.StatusNone, Index: 1}
	eng := netsim.NewEngine(w.r.work,
		// The walker always uses the paper's backtracking confirmation:
		// the hybrid composition needs every round to end with a verdict.
		&routeHandler{seq: seq, originalOf: w.r.originalOf(), confirm: ConfirmBacktrack},
		w.r.engineOptions()...)
	stepper, err := eng.Stepper(start, 0, h, 2*int64(seq.Len())+8)
	if err != nil {
		return err
	}
	w.round = netsimRound{st: stepper}
	return nil
}

// Step advances the guaranteed route by one hop. It returns true when the
// route has terminated (success, definitive failure, or error).
func (w *Walker) Step() bool {
	if w.done {
		return true
	}
	if !w.round.Step() {
		return false
	}
	// Round ended.
	w.completedHops += w.round.Hops()
	if err := w.round.Err(); err != nil {
		w.fail(err)
		return true
	}
	status, delivered := w.round.Outcome()
	if !delivered {
		w.fail(fmt.Errorf("route: message dropped at %d", w.round.Final()))
		return true
	}
	if status == netsim.StatusSuccess {
		w.done = true
		w.status = netsim.StatusSuccess
		return true
	}
	// Failed round: definitive iff covered.
	start, err := w.r.entry(w.s)
	if err != nil {
		w.fail(err)
		return true
	}
	covered, err := w.r.covered(start, w.t, w.bound)
	if err != nil {
		w.fail(err)
		return true
	}
	if covered {
		w.done = true
		w.status = netsim.StatusFailure
		return true
	}
	if w.bound >= w.maxBound {
		w.fail(fmt.Errorf("%w: bound %d", ErrSequenceExhausted, w.bound))
		return true
	}
	w.bound *= w.r.cfg.growth()
	if w.bound > w.maxBound {
		w.bound = w.maxBound
	}
	if err := w.startRound(); err != nil {
		w.fail(err)
	}
	return w.done
}

func (w *Walker) fail(err error) {
	w.err = err
	w.done = true
}

// Done reports whether the route has terminated.
func (w *Walker) Done() bool { return w.done }

// Status returns the terminal status (valid once Done).
func (w *Walker) Status() netsim.Status { return w.status }

// Hops returns the hops consumed so far across all rounds.
func (w *Walker) Hops() int64 {
	if w.round == nil || w.done {
		return w.completedHops
	}
	return w.completedHops + w.round.Hops()
}

// Err returns the terminal error, if any.
func (w *Walker) Err() error { return w.err }
