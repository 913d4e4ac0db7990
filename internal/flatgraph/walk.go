package flatgraph

import (
	"errors"
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

// RouteWalk runs one full round of Algorithm Route (§3) on the snapshot:
// the forward exploration from the start node's port-0 edge until the
// destination is found or seq is exhausted, then the reversed walk carrying
// the verdict back to the first node simulating src. It is the compiled
// equivalent of the netsim token engine driving route's handler — same
// positions, same hop counts, same verdict, same metering — with no
// allocations and no per-hop error paths.
func (f *Graph) RouteWalk(start int32, src, dst graph.NodeID, seq Seq) (RouteOutcome, error) {
	if !f.regular3 {
		return RouteOutcome{}, ErrNotRegular
	}
	var (
		out    RouteOutcome
		spill  [spillWords]uint64
		d      = dirs{s: seq.Dirs, spill: &spill}
		node   = start
		inPort = int32(0)
		L      = int64(seq.Length)
		i      = int64(1) // index of the next direction to apply
		peak   = 0
		hops   = int64(0)
	)
	// Forward phase.
	for {
		act := int(f.memw[node]) + int(inPort) + 4 + wordBits(i)
		if f.orig[node] == dst {
			if act > peak {
				peak = act
			}
			out.Success = true
			break
		}
		if i > L {
			if act > peak {
				peak = act
			}
			break
		}
		d.fit(i)
		t := d.at(i)
		if s := act + int(t) + 1; s > peak {
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
	out.MaxIndex = i

	// Turnaround: the terminal forward activation bounces the message back
	// through its arrival port with the index pointing at the step to undo.
	j := i - 1
	h := f.halves[node*3+inPort]
	node, inPort = h.To, h.Port
	hops++

	// Backward phase: undo steps until any node simulating src is reached.
	for {
		act := int(f.memw[node]) + int(inPort) + 4 + wordBits(j)
		if f.orig[node] == src {
			if act > peak {
				peak = act
			}
			out.DeliveredIndex = j
			break
		}
		if j < 1 {
			return out, ErrUnwound
		}
		d.fit(j)
		t := d.at(j)
		if s := act + int(t) + 1; s > peak {
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
	out.Hops = hops
	out.PeakMemoryBits = peak
	return out, nil
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
		hops   = int64(0)
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
	hops += L
	out.MaxIndex = L + 1
	if act := int(f.memw[node]) + int(inPort) + 4 + wordBits(L+1); act > peak {
		peak = act // turnaround activation
	}

	// Turnaround + backward confirmation, exactly as in RouteWalk.
	j := L
	h := f.halves[node*3+inPort]
	node, inPort = h.To, h.Port
	hops++
	for {
		act := int(f.memw[node]) + int(inPort) + 4 + wordBits(j)
		if f.orig[node] == src {
			if act > peak {
				peak = act
			}
			break
		}
		if j < 1 {
			return out, ErrUnwound
		}
		d.fit(j)
		t := d.at(j)
		if s := act + int(t) + 1; s > peak {
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
	out.Hops = hops
	out.PeakMemoryBits = peak
	return out, nil
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
