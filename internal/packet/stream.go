package packet

import "math/rand"

// Arrival streams. A Sequence materializes a whole workload in memory; an
// ArrivalStream hands it over one packet at a time, so unbounded traces
// simulate in memory proportional to the producer's state (a read-ahead
// window, per-flow counters) rather than the trace length. Streams honor
// the same structural contract as a valid Sequence — packets arrive in
// nondecreasing Arrival order with strictly ascending IDs — which consumers
// (the stream-backed cursor in internal/switchsim) verify incrementally,
// with Validator.
//
// Three producers cover the workload sources:
//
//   - SeqStream replays an in-memory Sequence (and is how the slice and
//     stream front ends are pinned bit-identical in the differential suites);
//   - GenStream synthesizes arrivals lazily from a SlotSource, a window of
//     slots at a time and only at the slots the source reports busy
//     (StreamTraffic builds one for any SlotStreamer generator);
//   - TraceStream (tracestream.go) decodes the CRC-framed binary trace
//     format with windowed read-ahead.

// ArrivalStream is the pull-based form of an arrival sequence. Packets are
// delivered in nondecreasing Arrival order with strictly ascending IDs.
// Exhaustion is not an error: Peek and Next report ok=false both at a clean
// end of stream and on failure, and Err distinguishes the two.
type ArrivalStream interface {
	// Peek returns the next packet without consuming it. ok is false when
	// the stream is exhausted or has failed.
	Peek() (p Packet, ok bool)
	// Next consumes and returns the next packet.
	Next() (p Packet, ok bool)
	// Err returns the error that terminated the stream early, or nil after
	// a clean end of stream (or mid-stream).
	Err() error
}

// SlotSource is the incremental, event-driven form of a slot-major
// generator. AppendSlot appends slot t's arrivals to dst — in admission
// order, with Arrival, In, Out and Value set — and returns the extended
// slice; the caller assigns packet IDs in append order, so sources leave ID
// zero. NextBusy(t) names the first slot >= t whose AppendSlot call can draw
// from the RNG, change the source's state or emit a packet: every slot in
// [t, NextBusy(t)) is a no-op the driver may leave out. It draws nothing and
// changes nothing itself, may answer early (a source that draws every slot
// returns t) but never late, and returns math.MaxInt when no busy slot
// remains.
//
// Callers invoke AppendSlot for ascending slots, each at most once, and
// every slot they leave out lies in some [t, NextBusy(t)) they asked about
// — the loop in synthesize. A source owns its RNG and per-flow state, which
// is what makes a windowed consumer equivalent to a full materialization,
// and a jumping driver equivalent to an every-slot one: the draws happen in
// the same order either way.
type SlotSource interface {
	AppendSlot(dst Sequence, t int) Sequence
	NextBusy(t int) int
}

// SlotStreamer is implemented by generators whose arrival process is
// slot-major — the RNG draws for slot t happen before those for slot t+1 —
// and can therefore synthesize arrivals incrementally. For these
// generators, streaming via Source and materializing via Generate produce
// bit-identical sequences (Generate is implemented on top of Source).
//
// Per-input renewal generators (PoissonBurst, HeavyTail, BurstyBlocking)
// draw one input's whole timeline before the next input's and do not
// implement the interface; StreamTraffic falls back to materializing them.
type SlotStreamer interface {
	Generator
	// Source binds the generator to an RNG and geometry, returning the
	// stateful per-slot form.
	Source(rng *rand.Rand, inputs, outputs int) SlotSource
}

// synthesize is the one loop that drives a SlotSource: it appends the
// arrivals of the source's busy slots in [from, end) to dst, numbering IDs
// from id in append order, and jumps every stretch the source reports idle.
// It returns the extended slice, the next ID and the first busy slot >= end,
// where the next call resumes.
func synthesize(dst Sequence, src SlotSource, from, end int, id int64) (Sequence, int64, int) {
	t := src.NextBusy(from)
	for ; t < end; t = src.NextBusy(t + 1) {
		n := len(dst)
		dst = src.AppendSlot(dst, t)
		for k := n; k < len(dst); k++ {
			dst[k].ID = id
			id++
		}
	}
	return dst, id, t
}

// GenerateInto is gen.Generate(rng, inputs, outputs, slots) drawn into
// dst's storage: the result is bit-identical to Generate's and leaves rng
// in the same state, whatever dst held. For a SlotStreamer it drives the
// source across the horizon's busy slots into dst[:0], assigning IDs in
// append order, so a caller that hands back the previous result draws a
// whole seed stream without growing a slice per seed. Any other generator
// falls back to gen.Generate and ignores dst. Every SlotStreamer's
// Generate is GenerateInto(nil, ...).
//
// Slot-major append order is already sorted by (Arrival, ID), so the
// closing Normalize only checks that order in one pass and renumbers; it
// sorts only if a source broke the SlotSource contract.
func GenerateInto(dst Sequence, gen Generator, rng *rand.Rand, inputs, outputs, slots int) Sequence {
	ss, ok := gen.(SlotStreamer)
	if !ok {
		return gen.Generate(rng, inputs, outputs, slots)
	}
	seq, _, _ := synthesize(dst[:0], ss.Source(rng, inputs, outputs), 0, slots, 0)
	return seq.Normalize()
}

// StreamTraffic returns an ArrivalStream of the generator's workload for
// the given geometry and horizon, bit-identical to
// gen.Generate(rng, inputs, outputs, slots). SlotStreamer generators are
// streamed lazily in O(window) memory; all others are materialized once and
// replayed (their draw order does not factor by slot, so laziness cannot
// reproduce Generate's output).
func StreamTraffic(gen Generator, rng *rand.Rand, inputs, outputs, slots int) ArrivalStream {
	if ss, ok := gen.(SlotStreamer); ok {
		return NewGenStream(ss.Source(rng, inputs, outputs), slots)
	}
	return NewSeqStream(gen.Generate(rng, inputs, outputs, slots))
}

// SeqStream replays an in-memory Sequence as an ArrivalStream.
type SeqStream struct {
	seq Sequence
	pos int
}

// NewSeqStream wraps a sequence; the stream aliases it, so the caller must
// not mutate seq while streaming.
func NewSeqStream(seq Sequence) *SeqStream { return &SeqStream{seq: seq} }

// Peek implements ArrivalStream.
func (s *SeqStream) Peek() (Packet, bool) {
	if s.pos >= len(s.seq) {
		return Packet{}, false
	}
	return s.seq[s.pos], true
}

// Next implements ArrivalStream.
func (s *SeqStream) Next() (Packet, bool) {
	p, ok := s.Peek()
	if ok {
		s.pos++
	}
	return p, ok
}

// Err implements ArrivalStream; replay cannot fail.
func (s *SeqStream) Err() error { return nil }

// streamWindow is the number of slots a GenStream covers per refill,
// counted from the first busy slot at or after its position: the idle
// stretch in front of a window costs one NextBusy call, not a window each.
// Steady-state memory is one window's worth of arrivals regardless of the
// horizon; the value trades refill frequency against buffer size and is
// deliberately small enough that even line-rate traffic on wide switches
// stays in cache.
const streamWindow = 256

// GenStream adapts a SlotSource to an ArrivalStream by synthesizing a
// window of slots at a time into a reusable buffer. Output is
// bit-identical to materializing the whole horizon via GenerateInto:
// both run the synthesize loop, so the source sees the same busy slots in
// the same order and IDs are assigned in the same global append order. Work
// is per busy slot, not per slot of the horizon.
type GenStream struct {
	src   SlotSource
	slots int
	t     int // synthesis resumes at the first busy slot >= t
	id    int64
	buf   Sequence
	pos   int
}

// NewGenStream streams the source across `slots` arrival slots.
func NewGenStream(src SlotSource, slots int) *GenStream {
	return &GenStream{src: src, slots: slots}
}

// fill refills the window buffer until it holds at least one unconsumed
// packet or the horizon is exhausted. Windows that come up empty (busy
// slots that emit nothing, such as stage boundaries) are skipped in a loop,
// so sparse traffic never returns a false end-of-stream.
func (g *GenStream) fill() {
	for g.pos >= len(g.buf) && g.t < g.slots {
		g.pos = 0
		first := g.src.NextBusy(g.t)
		end := g.slots
		if end-first > streamWindow {
			end = first + streamWindow
		}
		g.buf, g.id, g.t = synthesize(g.buf[:0], g.src, first, end, g.id)
	}
}

// Peek implements ArrivalStream.
func (g *GenStream) Peek() (Packet, bool) {
	g.fill()
	if g.pos >= len(g.buf) {
		return Packet{}, false
	}
	return g.buf[g.pos], true
}

// Next implements ArrivalStream.
func (g *GenStream) Next() (Packet, bool) {
	p, ok := g.Peek()
	if ok {
		g.pos++
	}
	return p, ok
}

// Err implements ArrivalStream; synthesis cannot fail.
func (g *GenStream) Err() error { return nil }
