// Package flatgraph is the compiled hot path of the routing engine: a CSR
// (compressed sparse row) snapshot of a port-labeled multigraph plus
// allocation-free walk loops over it.
//
// Paper anchor: §2–§3. Every routing, broadcast, count, and hybrid query
// ultimately reduces to millions of exploration-sequence hops — one
// (inPort + T[i]) mod 3 step per hop on the degree-reduced graph of
// Figure 1. The reference execution path (package netsim driving the
// stateless handlers of package route) pays a map[NodeID][]Half lookup, an
// interface-dispatched Sequence.At, and error plumbing on every one of
// those hops. Braverman's walk rule is deliberately stateless per hop, so
// the entire loop compiles to flat-array arithmetic:
//
//   - nodes get dense int32 indices; the port table is one flat []Half32
//     indexed by rowStart[node]+port (stride 3 on the 3-regular reduced
//     graph);
//   - directions come from a Stream: the seed's base-3 symbols
//     ues.Symbol(seed, i, 3), packed two bits each and grown lazily in
//     chunks of 4096 (after a doubling head of 256..2048) published through
//     atomic pointers, up to a fixed cap of 2²⁰ symbols (256 KiB). Every
//     T_bound of the doubling loop is a prefix of that one stream, so a
//     hop reads its direction with a compare, a load and a shift instead
//     of two SplitMix64 rounds; past the cap, walkers derive 256-symbol
//     blocks into a buffer of their own. One Stream per seed is shared by
//     every walker of a compiled engine and freed with it;
//   - all bounds are validated once at Compile, so the hop loop carries no
//     per-hop error values.
//
// Concurrency contract: a compiled Graph is immutable after Compile and
// safe for any number of concurrent walkers — every walk loop works
// exclusively on its caller's stack plus the shared read-only arrays and
// the lock-free Stream. The hop-granular RouteStepper holds per-walk state
// and is single-goroutine, but any number of steppers may share one Graph.
//
// The slow token engine remains the semantic reference: the walkers here
// replicate its verdicts, hop counts, traces, and even its header-size
// and memory-metering statistics exactly, and the differential tests in
// package route/count pin that equivalence on random labeled multigraphs.
package flatgraph
