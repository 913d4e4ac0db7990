package flatgraph

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ues"
)

// TestStreamMatchesSymbol checks every symbol a walker can read against the
// PRF: ascending and descending through the doubling head, every chunk edge
// up to the cap, and on past it into the derived blocks. Reads inside the
// head leave the tail table unallocated.
func TestStreamMatchesSymbol(t *testing.T) {
	const seed = 0x5eed
	end := int64(streamCap + 3*spillSymbols + 17)
	want := make([]int8, end)
	for i := range want {
		want[i] = int8(ues.Symbol(seed, uint64(i), 3))
	}
	s := NewStream(seed)
	var spill [spillWords]uint64
	up := dirs{s: s, spill: &spill}
	for i := int64(0); i < end; i++ {
		up.fit(i)
		if got := up.at(i); got != int32(want[i]) {
			t.Fatalf("ascending symbol %d: %d, want %d", i, got, want[i])
		}
		if i == chunkSymbols-1 && s.slots.tail.Load() != nil {
			t.Fatal("reads inside the head allocated the tail table")
		}
	}
	down := dirs{s: s} // stepper shape: spill allocated on first over-cap read
	for i := end - 1; i >= 0; i-- {
		down.fit(i)
		if got := down.at(i); got != int32(want[i]) {
			t.Fatalf("descending symbol %d: %d, want %d", i, got, want[i])
		}
		if got := s.At(i); got != int32(want[i]) {
			t.Fatalf("At(%d) = %d, want %d", i, got, want[i])
		}
	}
	for c := int64(0); c < headChunks-1+streamCap>>chunkShift; c++ {
		if s.slot(c).Load() == nil {
			t.Fatalf("chunk %d never published after a full sweep", c)
		}
	}
}

// cubic returns a labeled cubic multigraph compiled with identity
// projection.
func cubic(t *testing.T, n int, seed uint64) *Graph {
	t.Helper()
	g, err := gen.RandomRegularMulti(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Compile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// prfRoute replays RouteWalk's round deriving every direction from the PRF
// directly: the forward search, the turnaround, and the backtrack.
func prfRoute(f *Graph, start int32, src, dst graph.NodeID, seed uint64, L int64) (success bool, hops, delivered int64) {
	node, in := start, int32(0)
	i := int64(1)
	for f.orig[node] != dst && i <= L {
		node, in = f.Step(node, in, int32(ues.Symbol(seed, uint64(i), 3)))
		i++
		hops++
	}
	success = f.orig[node] == dst
	j := i - 1
	h := f.Half(node, in)
	node, in = h.To, h.Port
	hops++
	for f.orig[node] != src {
		exit := in - int32(ues.Symbol(seed, uint64(j), 3))
		if exit < 0 {
			exit += 3
		}
		h := f.Half(node, exit)
		node, in = h.To, h.Port
		j--
		hops++
	}
	return success, hops, j
}

// TestWalksAcrossCapMatchPRF runs every walker over sequences three times
// the length of a stream whose cache stops at one chunk, so both the
// forward and the backward phases cross from cached chunks into derived
// blocks and back. Each must match the PRF replay, and the full-cap
// stream's walk field for field.
func TestWalksAcrossCapMatchPRF(t *testing.T) {
	const seed = 11
	f := cubic(t, 40, 3)
	L := int64(3*chunkSymbols + 77)
	small, full := newStream(seed, chunkSymbols), NewStream(seed)
	seq, ref := small.Seq(int(L)), full.Seq(int(L))
	for _, dst := range []graph.NodeID{39, 99999} {
		got, err := f.RouteWalk(0, 0, dst, seq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.RouteWalk(0, 0, dst, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dst %d: small-cap walk %+v, full-cap walk %+v", dst, got, want)
		}
		if dst == 99999 && got.MaxIndex <= 2*small.limit {
			t.Fatalf("unreachable walk peaked at index %d, inside twice the cap %d", got.MaxIndex, small.limit)
		}
		success, hops, delivered := prfRoute(f, 0, 0, dst, seed, L)
		if got.Success != success || got.Hops != hops || got.DeliveredIndex != delivered {
			t.Fatalf("dst %d: walk %+v, PRF replay (success %v, hops %d, delivered %d)",
				dst, got, success, hops, delivered)
		}
		st, err := f.ResumeRouteStepper(Origin(0), 0, dst, seq)
		if err != nil {
			t.Fatal(err)
		}
		st.Instrument(nil)
		for !st.Step() {
		}
		if st.Err() != nil || st.State().RouteOutcome != want {
			t.Fatalf("dst %d: stepper %+v (err %v), walk %+v", dst, st.State().RouteOutcome, st.Err(), want)
		}
	}

	gotVis, wantVis := make([]bool, f.NumNodes()), make([]bool, f.NumNodes())
	gotB, err := f.BroadcastWalk(0, 0, seq, gotVis)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := f.BroadcastWalk(0, 0, ref, wantVis)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("broadcast: small-cap %+v, full-cap %+v", gotB, wantB)
	}

	order, err := f.CoverWalk(0, seq, make([]bool, f.NumNodes()), []int32{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{0: true}
	wantOrder := []int32{0}
	node, in := int32(0), int32(0)
	for i := int64(1); i <= L; i++ {
		node, in = f.Step(node, in, int32(ues.Symbol(seed, uint64(i), 3)))
		if !seen[node] {
			seen[node] = true
			wantOrder = append(wantOrder, node)
		}
	}
	if len(order) != len(wantOrder) {
		t.Fatalf("cover order %v, PRF replay %v", order, wantOrder)
	}
	for k := range order {
		if order[k] != wantOrder[k] {
			t.Fatalf("cover order %v, PRF replay %v", order, wantOrder)
		}
	}
}

// TestStreamConcurrentFirstTouch races many walkers onto the same unfilled
// chunks: every walker reads the PRF's symbols, and all of them end up
// reading the one published copy.
func TestStreamConcurrentFirstTouch(t *testing.T) {
	const seed, walkers = 77, 16
	s := NewStream(seed)
	lo := int64(5 * chunkSymbols)
	windows := make([][]uint64, walkers)
	var (
		ready, wg sync.WaitGroup
		gate      = make(chan struct{})
		errs      = make(chan string, walkers)
	)
	ready.Add(walkers)
	wg.Add(walkers)
	for w := 0; w < walkers; w++ {
		go func(w int) {
			defer wg.Done()
			d := dirs{s: s}
			ready.Done()
			<-gate
			for i := lo; i < lo+chunkSymbols; i++ {
				d.fit(i)
				if got := d.at(i); got != int32(ues.Symbol(seed, uint64(i), 3)) {
					errs <- "walker read a symbol that differs from the PRF"
					return
				}
			}
			d.fit(lo)
			windows[w] = d.w
		}(w)
	}
	ready.Wait()
	close(gate)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	published := *s.slot(headChunks - 1 + lo>>chunkShift).Load()
	for w, win := range windows {
		if &win[0] != &published[0] {
			t.Fatalf("walker %d kept a private copy of the chunk", w)
		}
	}
}

// TestStreamForKeepsSeeds pins the sharing rule routers and counters rely
// on: a shared stream is reused only for its own seed.
func TestStreamForKeepsSeeds(t *testing.T) {
	s := NewStream(1)
	if StreamFor(1, s) != s {
		t.Fatal("a stream of the same seed was not reused")
	}
	for _, got := range []*Stream{StreamFor(2, s), StreamFor(2, nil)} {
		if got == s || got.Seed() != 2 {
			t.Fatalf("StreamFor(2) returned a stream of seed %d", got.Seed())
		}
	}
}
