// Package packet defines the packet model shared by all switch simulators,
// together with synthetic traffic generators, value distributions and trace
// serialization.
//
// Time is discrete: packets carry the index of the time slot in which they
// arrive at the switch. Values are positive integers so that the offline
// optima and bounds are exact integer sums and all simulations are
// bit-for-bit deterministic.
//
// # Invariants
//
//   - A Sequence is sorted by (Arrival, ID) with IDs unique and ascending;
//     Normalize establishes this and every generator returns normalized
//     output, so the engines consume arrivals with a single cursor and
//     resolve the next arrival after any slot in O(1) (NextArrival).
//   - Generators are pure functions of (rng, geometry, horizon): the same
//     seed always yields the same trace, on any platform.
//   - Trace serialization round-trips exactly; the binary format carries a
//     CRC64 trailer, so any corruption or truncation is rejected rather
//     than replayed.
//
// Two generator families cover the two traffic regimes: the Bernoulli
// family (Bernoulli, Bursty, Hotspot, Diagonal, Permutation) models heavy
// sustained load, while the sparse family (PoissonBurst, Diurnal,
// HeavyTail, BurstyBlocking, CrossDrain) models long quiet or drain-only
// stretches — the regime the event-driven simulator fast path exploits,
// and the shape of adversarial lower-bound constructions. BurstyBlocking
// specifically produces backlogged-but-quiescent states: bursts
// converging on one hot output that, at speedup >= 2, leave a deep
// output-queue backlog draining long after the input side has emptied.
// CrossDrain is its buffered-crossbar counterpart: conflict-free
// all-to-all rotations that park the backlog across the crosspoint
// matrix, making the quiet stretches pure crosspoint drain. FlowMix adds a
// flow-level process (open flows emitting packet trains, a rat/elephant
// size mix, a cyclic intensity profile) whose state is bounded by its
// open-flow cap rather than the horizon.
//
// # Streaming
//
// ArrivalStream is the pull interface RunCIOQStream/RunCrossbarStream consume:
// Peek/Next deliver packets in normalized order, and Err distinguishes a
// clean end of stream from a decode failure. SeqStream adapts an
// in-memory Sequence; GenStream drives any generator implementing
// SlotStreamer (a slot-major process exposed as a SlotSource) through a
// fixed-size refill window, so generation memory is O(window + generator
// state) regardless of the horizon; TraceStream decodes the binary trace
// format incrementally with the same per-record validation and CRC64
// checking as ReadBinary. StreamTraffic picks the streaming path when
// the generator supports it and falls back to materialize-then-stream
// otherwise, so callers get identical packets either way.
//
// Arrival synthesis is event-driven. A SlotSource names its next busy slot
// (NextBusy: the first slot at which AppendSlot can draw from the RNG,
// change state or emit), and the one loop that drives sources — shared by
// Generate and GenStream — calls AppendSlot only there: ascending slots,
// every slot left out inside a stretch the source itself reported idle. No
// RNG draw moves, so sequences are bit-identical to visiting every slot
// (the every-slot driver survives as the test oracle in reference_test.go)
// while the cost of a sparse FlowMix or a Diurnal trough is per event, not
// per slot of the horizon.
package packet
