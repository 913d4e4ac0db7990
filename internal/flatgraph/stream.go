package flatgraph

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/ues"
)

// Direction stream. ues.Symbol(seed, i, 3) depends on the index alone, not
// on the round's bound, so every T_bound of the doubling loop is a prefix of
// one infinite base-3 stream per seed. A Stream memoizes that stream packed
// two bits per symbol, in chunks derived on first touch and published
// lock-free; every walk over the same seed then reads its directions with a
// load and a shift instead of two SplitMix64 rounds per hop. Indices past
// the cache cap are derived block by block into the walker's own buffer.
//
// Chunks hold chunkSymbols symbols each, except the head: [0, chunkSymbols)
// is split into doubling chunks [0,256), [256,512), …, [2048,4096), so a
// short-lived stream (one router for one query) derives about as many
// symbols as its walks read rather than a full chunk. On a one-shot
// Network.Route over a 6×6 grid (2-vCPU Xeon VM), uniform 4096-symbol
// chunks ran 40% slower than deriving every symbol per hop; with the head,
// 20% faster.
const (
	chunkShift   = 12
	chunkSymbols = 1 << chunkShift // symbols per chunk past the head
	headShift    = 8
	headChunks   = chunkShift - headShift + 1 // [0,256) plus one per doubling up to chunkSymbols
	// streamCap is how many leading symbols a Stream caches: 2²⁰ symbols,
	// 256 KiB packed. A round at bound 128 already reads up to index
	// L(128) = 2²⁰, far past any walk a warm query makes on the serving
	// workloads.
	streamCap = 1 << 20
	// spillSymbols is the block a walker derives into its own buffer for
	// indices at or past the cap.
	spillSymbols = 256
	spillWords   = spillSymbols / 32
)

// Stream is the memoized base-3 direction stream of one sequence seed:
// symbol i equals ues.Symbol(seed, i, 3). It is the simulator's memo, not
// protocol state — every node of the simulated network still derives T[i]
// from O(log n) bits. A Stream is grown lazily and safe for any number of
// concurrent walkers: a cached read takes no lock, and concurrent first
// touches of one chunk publish exactly one copy.
//
// Symbol lo+k of a chunk starting at lo sits in bits 2(k%32)..2(k%32)+1 of
// word k/32.
type Stream struct {
	seed  uint64
	limit int64 // first index not cached
	// slots sits behind a pointer so that a walker's stack buffer does not
	// escape: publishing into a slot that is part of the Stream itself
	// would leak the walker's whole window to the heap.
	slots *slots
}

// slots is where a Stream publishes its chunks: the head's inline, and the
// rest in a table allocated by the first read past the head, so a stream
// whose walks stay short costs only the head.
type slots struct {
	head [headChunks]atomic.Pointer[[]uint64]
	tail atomic.Pointer[[]atomic.Pointer[[]uint64]]
}

// NewStream returns an empty stream for seed. No symbol is derived until a
// walk reads it.
func NewStream(seed uint64) *Stream { return newStream(seed, streamCap) }

// StreamFor returns shared when it derives seed, so that every walker of
// one seed reads one stream, and a new stream for seed otherwise (shared
// may be nil).
func StreamFor(seed uint64, shared *Stream) *Stream {
	if shared != nil && shared.seed == seed {
		return shared
	}
	return NewStream(seed)
}

// newStream builds a stream caching indices below limit, a positive
// multiple of chunkSymbols; tests use a small limit to exercise the
// over-cap path on short walks.
func newStream(seed uint64, limit int64) *Stream {
	return &Stream{seed: seed, limit: limit, slots: new(slots)}
}

// Seed returns the sequence seed the stream derives.
func (s *Stream) Seed() uint64 { return s.seed }

// Seq returns the length-L prefix of the stream, T_bound for L = ues.Length.
func (s *Stream) Seq(length int) Seq { return Seq{Dirs: s, Length: length} }

// At returns symbol i (i ≥ 0).
func (s *Stream) At(i int64) int32 {
	if i >= s.limit {
		return int32(ues.Symbol(s.seed, uint64(i), 3))
	}
	c, lo, n := span(i)
	k := uint64(i - lo)
	return int32(s.chunk(c, lo, n)[k>>5]>>((k&31)<<1)) & 3
}

// span locates the chunk holding index i < limit: its slot, first index
// and symbol count.
func span(i int64) (c, lo, n int64) {
	switch {
	case i < 1<<headShift:
		return 0, 0, 1 << headShift
	case i < chunkSymbols:
		l := int64(bits.Len64(uint64(i))) - 1
		return l - headShift + 1, 1 << l, 1 << l
	default:
		return headChunks - 1 + i>>chunkShift, i &^ (chunkSymbols - 1), chunkSymbols
	}
}

// chunk returns the packed chunk in slot c (starting at lo, n symbols),
// deriving and publishing it on first touch. Racing first touches each
// derive a copy, and all but the first to publish discard theirs.
func (s *Stream) chunk(c, lo, n int64) []uint64 {
	slot := s.slot(c)
	if p := slot.Load(); p != nil {
		return *p
	}
	w := make([]uint64, n/32)
	pack(w, s.seed, lo)
	if !slot.CompareAndSwap(nil, &w) {
		return *slot.Load()
	}
	return w
}

// slot returns the pointer chunk c is published in, allocating the tail
// table on the first read past the head.
func (s *Stream) slot(c int64) *atomic.Pointer[[]uint64] {
	if c < headChunks {
		return &s.slots.head[c]
	}
	t := s.slots.tail.Load()
	if t == nil {
		fresh := make([]atomic.Pointer[[]uint64], s.limit>>chunkShift-1)
		if s.slots.tail.CompareAndSwap(nil, &fresh) {
			t = &fresh
		} else {
			t = s.slots.tail.Load()
		}
	}
	return &(*t)[c-headChunks]
}

// pack derives the 32·len(w) symbols from index from on, two bits each.
func pack(w []uint64, seed uint64, from int64) {
	i := uint64(from)
	for k := range w {
		var x uint64
		for sh := uint(0); sh < 64; sh += 2 {
			x |= uint64(ues.Symbol(seed, i, 3)) << sh
			i++
		}
		w[k] = x
	}
}

// dirs is a walker's window onto a Stream: w holds the n packed symbols
// from index lo on, either a published chunk or, past the cap, a block
// derived into spill. Walkers keep it on their stack (spill pointing at a
// stack buffer); a stepper allocates spill on its first over-cap read.
//
// A read is d.fit(i) then d.at(i). The two are split so that each stays
// within the inlining budget: the hit path is then a compare, a load and a
// shift inside the caller's hop loop, which measured about 15% faster per
// walk than one out-of-line call.
type dirs struct {
	s     *Stream
	w     []uint64
	lo    int64
	n     uint64
	spill *[spillWords]uint64
}

// fit moves the window to the block holding index i ≥ 0, unless it
// already holds i.
func (d *dirs) fit(i int64) {
	if uint64(i-d.lo) >= d.n {
		d.load(i)
	}
}

// at returns direction i, which the window must hold.
func (d *dirs) at(i int64) int32 {
	k := uint64(i - d.lo)
	return int32(d.w[k>>5]>>((k&31)<<1)) & 3
}

// load points the window at the block holding index i.
func (d *dirs) load(i int64) {
	if s := d.s; i < s.limit {
		c, lo, n := span(i)
		d.w, d.lo = s.chunk(c, lo, n), lo
	} else {
		if d.spill == nil {
			d.spill = new([spillWords]uint64)
		}
		d.lo = i &^ (spillSymbols - 1)
		pack(d.spill[:], s.seed, d.lo)
		d.w = d.spill[:]
	}
	d.n = uint64(len(d.w)) << 5
}
