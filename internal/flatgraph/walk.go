package flatgraph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// Errors reported by the walkers. Both indicate misuse or an internal
// invariant violation, never a routing outcome — all bounds the hop loop
// relies on are validated before it starts.
var (
	// ErrNotRegular means a walk was requested on a snapshot that is not
	// 3-regular; the flat loops rely on it (with the stream's base-3
	// directions) for stride addressing and branchless mod-3 steps.
	ErrNotRegular = errors.New("flatgraph: walk requires a 3-regular snapshot")
	// ErrUnwound is the defensive guard on the backward loop: the reversed
	// walk consumed its whole index budget without reaching a node of the
	// source — impossible for a well-formed reduction, since the unwind
	// terminates at the start position at the latest.
	ErrUnwound = errors.New("flatgraph: backward walk unwound past the origin")
)

// Memory-metering replica. The reference engine charges every handler
// activation for its working registers (route.charge): each of self,
// selfOrig, inPort, degree, and the header index always, plus the direction
// t on stepping activations, at bits.Len64(|v|)+1 bits per register. The
// flat walkers reproduce those sums exactly so the PeakMemoryBits they
// report is bit-for-bit the reference's. On the 3-regular walk the small
// registers collapse to constants: w(deg=3) = 3, w(inPort) = inPort+1 and
// w(t) = t+1 for values in {0,1,2}.

// wordBits is route.charge's per-register accounting: value width plus a
// sign bit.
func wordBits(v int64) int {
	if v < 0 {
		v = -v
	}
	return bits.Len64(uint64(v)) + 1
}

// RouteOutcome reports one completed flat route round, carrying exactly the
// statistics the reference round reports.
type RouteOutcome struct {
	// Success is the verdict: true if the walk reached (a gadget node of)
	// the destination, false if it exhausted the sequence.
	Success bool
	// Hops is the total edge traversals, forward and backward.
	Hops int64
	// DeliveredIndex is the header index at backward delivery — the input
	// to the reference's forward-steps reconstruction.
	DeliveredIndex int64
	// MaxIndex is the largest header index any activation observed, from
	// which the caller derives the reference's MaxHeaderBits.
	MaxIndex int64
	// PeakMemoryBits replicates the reference's per-activation memory
	// metering peak.
	PeakMemoryBits int
}

// WalkState is a route round's whole state between two activations: the
// message's position, its header (Index, Backward, and Success as the
// status bit), and the round's metering so far. §3's walk keeps no state
// anywhere else, so a round resumes exactly from any WalkState — on the
// same snapshot at the same position, or at a re-entry position after a
// recompile.
type WalkState struct {
	// Node and InPort are the dense position and the port the message
	// arrived through.
	Node, InPort int32
	// Index is the header index (see the route package's index
	// discipline); Backward says whether the round has turned around.
	Index    int64
	Backward bool
	// Done is set once the round has terminated: the verdict delivered
	// at the source, or the confirmation unwound (ErrUnwound).
	Done bool
	// RouteOutcome holds the status bit (Success) and the round's metering
	// so far; Hops counts every hop of the round, across resumptions.
	RouteOutcome
}

// Origin returns the state of a fresh round entering at dense node start.
func Origin(start int32) WalkState { return WalkState{Node: start, Index: 1} }

// CheckPosition validates a resume position against the snapshot.
func (f *Graph) CheckPosition(node, inPort int32) error {
	if node < 0 || int(node) >= f.NumNodes() {
		return fmt.Errorf("flatgraph: resume at node %d outside [0,%d)", node, f.NumNodes())
	}
	if inPort < 0 || inPort > 2 {
		return fmt.Errorf("flatgraph: resume with in-port %d outside [0,3)", inPort)
	}
	return nil
}

// RouteWalk runs one full round of Algorithm Route (§3) on the snapshot
// from the start node's port-0 edge: RouteWalkFrom from Origin(start) with
// no hop limit.
func (f *Graph) RouteWalk(start int32, src, dst graph.NodeID, seq Seq) (RouteOutcome, error) {
	w := Origin(start)
	err := f.RouteWalkFrom(&w, src, dst, seq, math.MaxInt64)
	return w.RouteOutcome, err
}

// RouteWalkFrom advances the round held in w by at most maxHops hops: the
// forward exploration until the destination is found or seq is exhausted,
// then the reversed walk carrying the verdict back to the first node
// simulating src, where it sets w.Done. It is the compiled equivalent of
// the netsim token engine driving route's handler — same positions, same
// hop counts, same verdict, same metering — with no allocations and no
// per-hop error paths. When the hop limit strikes first, w holds the
// position of the next activation; continuing from it is hop-for-hop the
// uninterrupted walk. The activation delivering the verdict performs no
// hop, so it runs even with the limit spent.
//
// The limit costs the hop loops nothing: it is folded into the index
// bound each phase already tests.
func (f *Graph) RouteWalkFrom(w *WalkState, src, dst graph.NodeID, seq Seq, maxHops int64) error {
	if !f.regular3 {
		return ErrNotRegular
	}
	if w.Done {
		return nil
	}
	if err := f.CheckPosition(w.Node, w.InPort); err != nil {
		return err
	}
	var (
		spill  [spillWords]uint64
		d      = dirs{s: seq.Dirs, spill: &spill}
		node   = w.Node
		inPort = w.InPort
		L      = int64(seq.Length)
		i      = w.Index // forward: index of the next direction to apply
		peak   = w.PeakMemoryBits
		hops   = w.Hops
		stop   = hops + maxHops // hop count at which the limit strikes
	)
	if stop < hops {
		stop = math.MaxInt64
	}
	if !w.Backward {
		// Forward phase. Every forward activation hops, so the limit caps
		// the last index stepped; the loop tests that one bound and leaves
		// telling a terminal activation from the limit to the exit.
		last := L
		if stop-hops <= L-i {
			last = i + (stop - hops) - 1
		}
		for f.orig[node] != dst && i <= last {
			d.fit(i)
			t := d.at(i)
			if s := int(f.memw[node]) + int(inPort) + 4 + wordBits(i) + int(t) + 1; s > peak {
				peak = s
			}
			exit := inPort + t
			if exit >= 3 {
				exit -= 3
			}
			h := f.halves[node*3+exit]
			node, inPort = h.To, h.Port
			i++
			hops++
		}
		w.MaxIndex = max(w.MaxIndex, i)
		found := f.orig[node] == dst
		if hops == stop || !found && i <= L {
			w.Node, w.InPort, w.Index, w.Hops, w.PeakMemoryBits = node, inPort, i, hops, peak
			return nil
		}
		// Turnaround: the terminal forward activation (destination found,
		// or sequence exhausted) bounces the message back through its
		// arrival port with the index pointing at the step to undo.
		peak = max(peak, int(f.memw[node])+int(inPort)+4+wordBits(i))
		w.Backward, w.Success = true, found
		i--
		h := f.halves[node*3+inPort]
		node, inPort = h.To, h.Port
		hops++
	}

	// Backward phase: undo steps until any node simulating src is reached.
	// Every stepping activation hops, so the limit raises the lowest index
	// undone above the origin's 1.
	j := i
	first := int64(1)
	if stop-hops < j {
		first = j - (stop - hops) + 1
	}
	for f.orig[node] != src && j >= first {
		d.fit(j)
		t := d.at(j)
		if s := int(f.memw[node]) + int(inPort) + 4 + wordBits(j) + int(t) + 1; s > peak {
			peak = s
		}
		exit := inPort - t
		if exit < 0 {
			exit += 3
		}
		h := f.halves[node*3+exit]
		node, inPort = h.To, h.Port
		j--
		hops++
	}
	var err error
	switch {
	case f.orig[node] == src:
		// The delivering activation: no hop, so it runs with the limit
		// spent.
		peak = max(peak, int(f.memw[node])+int(inPort)+4+wordBits(j))
		w.DeliveredIndex, w.Done = j, true
	case j < 1:
		err = ErrUnwound
		w.Done = true
	}
	w.Node, w.InPort, w.Index, w.Hops, w.PeakMemoryBits = node, inPort, j, hops, peak
	return err
}

// BroadcastOutcome reports one completed flat broadcast round.
type BroadcastOutcome struct {
	// Hops is the total edge traversals, forward and backward.
	Hops int64
	// MaxIndex is the largest header index any activation observed.
	MaxIndex int64
	// PeakMemoryBits replicates the reference's memory metering peak.
	PeakMemoryBits int
}

// BroadcastWalk runs one full broadcast round: the complete forward
// exploration (marking every visited node in the dense visited set, which
// must have length NumNodes) followed by the backtracking confirmation to
// the first node simulating src. The marking matches the reference's
// trace-based collection: every position of the forward walk, including the
// start and the turnaround node.
func (f *Graph) BroadcastWalk(start int32, src graph.NodeID, seq Seq, visited []bool) (BroadcastOutcome, error) {
	if !f.regular3 {
		return BroadcastOutcome{}, ErrNotRegular
	}
	var (
		out    BroadcastOutcome
		spill  [spillWords]uint64
		d      = dirs{s: seq.Dirs, spill: &spill}
		node   = start
		inPort = int32(0)
		L      = int64(seq.Length)
		peak   = 0
	)
	visited[node] = true
	// Forward phase: exactly L steps — broadcast has no destination check.
	for i := int64(1); i <= L; i++ {
		d.fit(i)
		t := d.at(i)
		if s := int(f.memw[node]) + int(inPort) + 4 + wordBits(i) + int(t) + 1; s > peak {
			peak = s
		}
		exit := inPort + t
		if exit >= 3 {
			exit -= 3
		}
		h := f.halves[node*3+exit]
		node, inPort = h.To, h.Port
		visited[node] = true
	}
	out.MaxIndex = L + 1
	if act := int(f.memw[node]) + int(inPort) + 4 + wordBits(L+1); act > peak {
		peak = act // turnaround activation
	}

	// Turnaround + backward confirmation: RouteWalkFrom's backward phase
	// from the turnaround hop.
	h := f.halves[node*3+inPort]
	w := WalkState{Node: h.To, InPort: h.Port, Index: L, Backward: true,
		RouteOutcome: RouteOutcome{Hops: L + 1, PeakMemoryBits: peak}}
	err := f.RouteWalkFrom(&w, src, src, seq, math.MaxInt64)
	out.Hops, out.PeakMemoryBits = w.Hops, w.PeakMemoryBits
	return out, err
}

// CoverWalk walks seq from (start, port 0) to its end, marking every
// visited node in the dense visited set (length NumNodes). If order is
// non-nil, dense indices are appended in first-visit order (starting with
// start) and the grown slice is returned. This is the local simulation
// behind the §4 closure check and the counting walks — no metering, no
// messages.
func (f *Graph) CoverWalk(start int32, seq Seq, visited []bool, order []int32) ([]int32, error) {
	if !f.regular3 {
		return order, ErrNotRegular
	}
	var spill [spillWords]uint64
	d := dirs{s: seq.Dirs, spill: &spill}
	node, inPort := start, int32(0)
	visited[node] = true
	if order != nil {
		order = append(order, node)
	}
	L := int64(seq.Length)
	for i := int64(1); i <= L; i++ {
		d.fit(i)
		exit := inPort + d.at(i)
		if exit >= 3 {
			exit -= 3
		}
		h := f.halves[node*3+exit]
		node, inPort = h.To, h.Port
		if !visited[node] {
			visited[node] = true
			if order != nil {
				order = append(order, node)
			}
		}
	}
	return order, nil
}
