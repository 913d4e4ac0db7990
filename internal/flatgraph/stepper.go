package flatgraph

import (
	"math"

	"repro/internal/graph"
)

// RouteStepper is the hop-at-a-time form of RouteWalkFrom, for callers that
// interleave the guaranteed walk with another process (the Corollary 2
// race, a dynamic world's epochs) or observe every hop (tracing, the
// differential tests). Step granularity matches netsim.Stepper exactly:
// each Step is one handler activation, performing one hop unless the
// activation is terminal, so step-interleaved compositions charge
// identical step counts on either execution path.
type RouteStepper struct {
	f        *Graph
	d        dirs
	length   int64
	src, dst graph.NodeID
	w        WalkState
	err      error

	// Instrumented mode (see Instrument) adds the per-hop sink and the
	// reference memory metering, so a traced round still reports
	// RouteWalk's exact RouteOutcome without leaving the flat path.
	sink         HopSink
	instrumented bool
}

// HopSink receives one notification per hop performed by an instrumented
// stepper: the original-graph node the message stands at after the hop,
// the header index as it leaves that activation, and the walk direction.
// Called inline from Step — keep it allocation-free.
type HopSink func(node graph.NodeID, index int64, backward bool)

// Instrument attaches a hop sink (which may be nil) and enables the
// reference memory metering, so a fully stepped round reports the same
// RouteOutcome as RouteWalk. Call before the first Step.
func (st *RouteStepper) Instrument(sink HopSink) {
	st.sink, st.instrumented = sink, true
}

// ResumeRouteStepper continues the route round in state w, searching for
// dst and confirming back to src; a fresh round resumes from
// Origin(start). w may also carry a header to an arbitrary re-entry
// position — the resumption the paper's obliviousness argument licenses:
// a walk's entire state is (position, header), so when the topology is
// recompiled into a new snapshot the round picks up wherever the message
// happens to stand. The dynamic subsystem re-enters at the canonical
// gadget of the message's current original node with inPort 0, exactly
// like a fresh round's start.
func (f *Graph) ResumeRouteStepper(w WalkState, src, dst graph.NodeID, seq Seq) (*RouteStepper, error) {
	if !f.regular3 {
		return nil, ErrNotRegular
	}
	if err := f.CheckPosition(w.Node, w.InPort); err != nil {
		return nil, err
	}
	return &RouteStepper{f: f, d: dirs{s: seq.Dirs}, length: int64(seq.Length), src: src, dst: dst, w: w}, nil
}

// Step performs one activation (and its hop, if any). It returns true once
// the round has terminated: delivered with a verdict, or failed with Err.
// An instrumented stepper also keeps the RouteWalkFrom metering replica —
// every activation carries memw + inPort + 4 + wordBits(index), stepping
// activations add the direction register t+1, and terminal activations
// charge the base only — and calls the sink after every hop.
func (st *RouteStepper) Step() bool {
	w := &st.w
	if w.Done {
		return true
	}
	act := 0
	if st.instrumented {
		act = int(st.f.memw[w.Node]) + int(w.InPort) + 4 + wordBits(w.Index)
	}
	if w.Backward {
		if st.f.orig[w.Node] == st.src {
			w.PeakMemoryBits = max(w.PeakMemoryBits, act)
			w.DeliveredIndex = w.Index
			w.Done = true
			return true
		}
		if w.Index < 1 {
			st.err = ErrUnwound
			w.Done = true
			return true
		}
		st.d.fit(w.Index)
		t := st.d.at(w.Index)
		w.Index--
		exit := w.InPort - t
		if exit < 0 {
			exit += 3
		}
		st.hop(exit)
		st.meter(act + int(t) + 1)
		return false
	}
	if found := st.f.orig[w.Node] == st.dst; found || w.Index > st.length {
		// The terminal forward activation: the message bounces back through
		// its arrival port with the verdict bit set and the index pointing
		// at the step to undo.
		w.MaxIndex = max(w.MaxIndex, w.Index)
		w.Backward, w.Success = true, found
		w.Index--
		st.hop(w.InPort)
		st.meter(act)
		return false
	}
	st.d.fit(w.Index)
	t := st.d.at(w.Index)
	w.Index++
	exit := w.InPort + t
	if exit >= 3 {
		exit -= 3
	}
	st.hop(exit)
	st.meter(act + int(t) + 1)
	return false
}

func (st *RouteStepper) hop(exit int32) {
	w := &st.w
	h := st.f.halves[w.Node*3+exit]
	w.Node, w.InPort = h.To, h.Port
	w.Hops++
}

// meter charges a hop's activation (mem bits) to the memory peak and
// reports the hop to the sink, when instrumented.
func (st *RouteStepper) meter(mem int) {
	if st.instrumented {
		st.instrument(mem)
	}
}

func (st *RouteStepper) instrument(mem int) {
	w := &st.w
	w.PeakMemoryBits = max(w.PeakMemoryBits, mem)
	if st.sink != nil {
		st.sink(st.f.orig[w.Node], w.Index, w.Backward)
	}
}

// Run steps until the round terminates or maxHops more hops have been
// taken, and reports whether it terminated. The activation delivering the
// verdict performs no hop, so it runs even with the limit spent — Run
// stops exactly where RouteWalkFrom with the same limit stops.
func (st *RouteStepper) Run(maxHops int64) bool {
	stop := st.w.Hops + maxHops
	if stop < st.w.Hops {
		stop = math.MaxInt64
	}
	for !st.w.Done {
		if st.w.Hops == stop && !st.Delivering() {
			return false
		}
		st.Step()
	}
	return true
}

// Delivering reports whether the next activation delivers the verdict: the
// backward message stands on a node simulating src. That activation
// performs no hop.
func (st *RouteStepper) Delivering() bool {
	return st.w.Backward && !st.w.Done && st.f.orig[st.w.Node] == st.src
}

// State returns the round's state: where it stands and, for an
// instrumented stepper, the same metering RouteWalkFrom keeps — so a fully
// stepped round from an origin reports RouteWalk's exact RouteOutcome. An
// uninstrumented stepper meters everything but PeakMemoryBits. A round
// stopped in its forward phase counts the pending index into MaxIndex,
// as RouteWalkFrom does.
func (st *RouteStepper) State() WalkState {
	w := st.w
	if !w.Backward {
		w.MaxIndex = max(w.MaxIndex, w.Index)
	}
	return w
}

// Done reports whether the round has terminated.
func (st *RouteStepper) Done() bool { return st.w.Done }

// Success reports the verdict: true if the forward walk reached the
// destination (valid once Done with a nil Err).
func (st *RouteStepper) Success() bool { return st.w.Success }

// Hops returns the edge traversals performed so far.
func (st *RouteStepper) Hops() int64 { return st.w.Hops }

// Err returns the terminal error, if any.
func (st *RouteStepper) Err() error { return st.err }

// Position returns the current dense node and arrival port.
func (st *RouteStepper) Position() (node, inPort int32) { return st.w.Node, st.w.InPort }

// Index returns the current header index.
func (st *RouteStepper) Index() int64 { return st.w.Index }

// Backward reports whether the walk has turned around.
func (st *RouteStepper) Backward() bool { return st.w.Backward }
