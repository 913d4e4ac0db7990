package flatgraph

import (
	"fmt"

	"repro/internal/graph"
)

// RouteStepper is the hop-at-a-time form of RouteWalk, for callers that
// interleave the guaranteed walk with another process (the Corollary 2
// race) or inspect every position (the differential tests). Step
// granularity matches netsim.Stepper exactly: each Step is one handler
// activation, performing one hop unless the activation is terminal, so
// step-interleaved compositions charge identical step counts on either
// execution path.
type RouteStepper struct {
	f        *Graph
	d        dirs
	length   int64
	src, dst graph.NodeID
	node     int32
	inPort   int32
	index    int64
	backward bool
	success  bool
	done     bool
	hops     int64
	err      error

	// ins holds the instrumented mode's state (see Instrument): per-hop
	// sink plus the reference memory metering, so a traced round still
	// reports RouteWalk's exact RouteOutcome without leaving the flat
	// path. One pointer, so the untraced stepper stays in its allocation
	// size class.
	ins *stepInstr
}

// stepInstr is the instrumented stepper's extra state, allocated only
// when Instrument is called.
type stepInstr struct {
	sink      HopSink
	peak      int
	maxIndex  int64
	delivered int64
}

// HopSink receives one notification per hop performed by an instrumented
// stepper: the original-graph node the message stands at after the hop,
// the header index as it leaves that activation, and the walk direction.
// Called inline from Step — keep it allocation-free.
type HopSink func(node graph.NodeID, index int64, backward bool)

// Instrument attaches a hop sink (which may be nil) and enables the
// reference memory metering, so a fully stepped round reports the same
// RouteOutcome as RouteWalk. Call before the first Step. The
// uninstrumented Step keeps a single predictable dispatch branch; every
// per-hop instrumentation cost lives on the instrumented path.
func (st *RouteStepper) Instrument(sink HopSink) {
	st.ins = &stepInstr{sink: sink}
}

// RouteStepper starts a route round at the given dense start node,
// searching for dst and confirming back to src.
func (f *Graph) RouteStepper(start int32, src, dst graph.NodeID, seq Seq) (*RouteStepper, error) {
	return f.ResumeRouteStepper(start, 0, src, dst, seq, 1, false, false)
}

// ResumeRouteStepper reconstructs a route round mid-flight from its
// stateless header state — the index into the sequence, the direction, and
// the verdict so far — at an arbitrary re-entry position. This is the
// resumption the paper's obliviousness argument licenses: a walk's entire
// state is (position, header), so when the topology is recompiled into a
// new snapshot the round picks up wherever the message happens to stand.
// The dynamic subsystem re-enters at the canonical gadget of the message's
// current original node with inPort 0, exactly like a fresh round's start.
func (f *Graph) ResumeRouteStepper(node, inPort int32, src, dst graph.NodeID, seq Seq, index int64, backward, success bool) (*RouteStepper, error) {
	if !f.regular3 {
		return nil, ErrNotRegular
	}
	if node < 0 || int(node) >= f.NumNodes() {
		return nil, fmt.Errorf("flatgraph: resume at node %d outside [0,%d)", node, f.NumNodes())
	}
	if inPort < 0 || inPort > 2 {
		return nil, fmt.Errorf("flatgraph: resume with in-port %d outside [0,3)", inPort)
	}
	return &RouteStepper{
		f: f, d: dirs{s: seq.Dirs}, length: int64(seq.Length), src: src, dst: dst,
		node: node, inPort: inPort, index: index,
		backward: backward, success: success,
	}, nil
}

// Step performs one activation (and its hop, if any). It returns true once
// the round has terminated: delivered with a verdict, or failed with Err.
func (st *RouteStepper) Step() bool {
	if st.ins != nil {
		return st.stepInstrumented()
	}
	if st.done {
		return true
	}
	if st.backward {
		if st.f.orig[st.node] == st.src {
			st.done = true
			return true
		}
		if st.index < 1 {
			st.err = ErrUnwound
			st.done = true
			return true
		}
		st.d.fit(st.index)
		t := st.d.at(st.index)
		st.index--
		exit := st.inPort - t
		if exit < 0 {
			exit += 3
		}
		st.hop(exit)
		return false
	}
	if st.f.orig[st.node] == st.dst {
		st.backward, st.success = true, true
		st.index--
		st.hop(st.inPort)
		return false
	}
	if st.index > st.length {
		st.backward = true
		st.index--
		st.hop(st.inPort)
		return false
	}
	st.d.fit(st.index)
	t := st.d.at(st.index)
	st.index++
	exit := st.inPort + t
	if exit >= 3 {
		exit -= 3
	}
	st.hop(exit)
	return false
}

// stepInstrumented is Step plus the RouteWalk metering replica and the
// per-hop sink call. The activation charges mirror walk.go exactly: every
// activation carries memw + inPort + 4 + wordBits(index); stepping
// activations add the direction register t+1; terminal activations
// (destination found, sequence exhausted, backward delivery) charge the
// base only.
func (st *RouteStepper) stepInstrumented() bool {
	if st.done {
		return true
	}
	act := int(st.f.memw[st.node]) + int(st.inPort) + 4 + wordBits(st.index)
	if st.backward {
		if st.f.orig[st.node] == st.src {
			if act > st.ins.peak {
				st.ins.peak = act
			}
			st.ins.delivered = st.index
			st.done = true
			return true
		}
		if st.index < 1 {
			st.err = ErrUnwound
			st.done = true
			return true
		}
		st.d.fit(st.index)
		t := st.d.at(st.index)
		if s := act + int(t) + 1; s > st.ins.peak {
			st.ins.peak = s
		}
		st.index--
		exit := st.inPort - t
		if exit < 0 {
			exit += 3
		}
		st.hop(exit)
		st.emit()
		return false
	}
	if st.f.orig[st.node] == st.dst {
		if act > st.ins.peak {
			st.ins.peak = act
		}
		if st.index > st.ins.maxIndex {
			st.ins.maxIndex = st.index
		}
		st.backward, st.success = true, true
		st.index--
		st.hop(st.inPort)
		st.emit()
		return false
	}
	if st.index > st.length {
		if act > st.ins.peak {
			st.ins.peak = act
		}
		if st.index > st.ins.maxIndex {
			st.ins.maxIndex = st.index
		}
		st.backward = true
		st.index--
		st.hop(st.inPort)
		st.emit()
		return false
	}
	st.d.fit(st.index)
	t := st.d.at(st.index)
	if s := act + int(t) + 1; s > st.ins.peak {
		st.ins.peak = s
	}
	st.index++
	exit := st.inPort + t
	if exit >= 3 {
		exit -= 3
	}
	st.hop(exit)
	st.emit()
	return false
}

func (st *RouteStepper) emit() {
	if st.ins.sink != nil {
		st.ins.sink(st.f.orig[st.node], st.index, st.backward)
	}
}

// Outcome reports the RouteWalk-equivalent statistics of a fully stepped
// instrumented round: valid once Done with a nil Err on a stepper that
// was instrumented before its first Step and started at a round origin.
func (st *RouteStepper) Outcome() RouteOutcome {
	if st.ins == nil {
		return RouteOutcome{Success: st.success, Hops: st.hops}
	}
	return RouteOutcome{
		Success:        st.success,
		Hops:           st.hops,
		DeliveredIndex: st.ins.delivered,
		MaxIndex:       st.ins.maxIndex,
		PeakMemoryBits: st.ins.peak,
	}
}

func (st *RouteStepper) hop(exit int32) {
	h := st.f.halves[st.node*3+exit]
	st.node, st.inPort = h.To, h.Port
	st.hops++
}

// Done reports whether the round has terminated.
func (st *RouteStepper) Done() bool { return st.done }

// Success reports the verdict: true if the forward walk reached the
// destination (valid once Done with a nil Err).
func (st *RouteStepper) Success() bool { return st.success }

// Hops returns the edge traversals performed so far.
func (st *RouteStepper) Hops() int64 { return st.hops }

// Err returns the terminal error, if any.
func (st *RouteStepper) Err() error { return st.err }

// Position returns the current dense node and arrival port.
func (st *RouteStepper) Position() (node, inPort int32) { return st.node, st.inPort }

// Index returns the current header index.
func (st *RouteStepper) Index() int64 { return st.index }

// Backward reports whether the walk has turned around.
func (st *RouteStepper) Backward() bool { return st.backward }
