package switchsim

import (
	"fmt"

	"qswitch/internal/packet"
)

// arrivals is the cursor the slot loops (cioqEngine.run, crossbarEngine.run)
// read their arrival phase from. It has two backings with one contract —
// packets come out in (Arrival, ID) order, each validated before it is
// admitted, and the slot of the next pending arrival is known without
// consuming it:
//
//   - a Sequence (RunCIOQ, RunCrossbar): the caller's slice, read by index
//     and validated as the cursor reaches each packet — no per-packet
//     interface call, no copy beyond the one admission makes, no
//     allocation — and past a fixed horizon by finish;
//   - an ArrivalStream (RunCIOQStream, RunCrossbarStream): pulled with
//     exactly one packet of look-ahead and validated as pulled, so memory
//     is the producer's window and nothing past the horizon is ever pulled.
//
// The steppers are the third front end and need no cursor: their caller
// hands each slot's arrivals to StepSlot.
type arrivals struct {
	seq packet.Sequence
	pos int // seq[pos] is the next pending packet

	src   packet.ArrivalStream // nil when sequence-backed
	check packet.Validator     // has accepted every packet up to the pending one
	head  packet.Packet        // the next pending packet of src
	ok    bool                 // head is valid; false once src is drained

	// slots is the fixed horizon (Config.HorizonFor). Zero — only possible
	// stream-backed with Config.Slots == 0 — means last arrival + 1 + packet
	// count, discovered when the stream ends.
	slots int
}

// BadSequence wraps a packet.Validator's refusal into the error of the
// run: the one text of a malformed sequence on every front end and engine.
func BadSequence(err error) error { return fmt.Errorf("switchsim: bad sequence: %w", err) }

// seqArrivals wraps seq and validates its first packet.
func seqArrivals(cfg Config, seq packet.Sequence) (arrivals, error) {
	a := arrivals{seq: seq, check: packet.NewValidator(cfg.Inputs, cfg.Outputs), slots: cfg.HorizonFor(seq)}
	err := a.accept()
	return a, err
}

// accept validates the sequence packet at the cursor, if any.
func (a *arrivals) accept() error {
	if a.pos < len(a.seq) && !a.check.Accept(&a.seq[a.pos]) {
		return BadSequence(a.check.Reject(&a.seq[a.pos]))
	}
	return nil
}

// finish validates the sequence packets past the horizon, which the run
// never reached, so a sequence-backed run fails exactly when
// Sequence.Validate does. A stream is never pulled past the horizon.
func (a *arrivals) finish() error {
	if a.pos+1 < len(a.seq) {
		if err := a.check.AcceptAll(a.seq[a.pos+1:]); err != nil {
			return BadSequence(err)
		}
	}
	return nil
}

// streamArrivals wraps src and pulls its first packet.
func streamArrivals(cfg Config, src packet.ArrivalStream) (arrivals, error) {
	a := arrivals{src: src, check: packet.NewValidator(cfg.Inputs, cfg.Outputs), slots: cfg.Slots}
	err := a.pull()
	return a, err
}

// pull loads the stream's next packet into head. A clean end of stream
// clears ok; a stream error or a malformed packet fails the run.
func (a *arrivals) pull() error {
	a.head, a.ok = a.src.Next()
	if !a.ok {
		if err := a.src.Err(); err != nil {
			return fmt.Errorf("switchsim: arrival stream: %w", err)
		}
		return nil
	}
	if !a.check.Accept(&a.head) {
		return BadSequence(a.check.Reject(&a.head))
	}
	return nil
}

// peek returns the next not-yet-admitted packet, nil when none is left. The
// pointer is into the backing (the caller's slice, or head) and is valid
// until advance: handing the packet out by reference keeps the
// sequence-backed arrival phase at the one copy admission makes.
func (a *arrivals) peek() *packet.Packet {
	if a.src != nil {
		if a.ok {
			return &a.head
		}
		return nil
	}
	if a.pos < len(a.seq) {
		return &a.seq[a.pos]
	}
	return nil
}

// advance consumes the pending packet.
func (a *arrivals) advance() error {
	if a.src != nil {
		return a.pull()
	}
	a.pos++
	return a.accept()
}

// horizon is the number of slots the run simulates; with slots == 0 it is
// only meaningful once the stream is drained.
func (a *arrivals) horizon() int {
	if a.slots > 0 {
		return a.slots
	}
	return a.check.Horizon()
}

// jumpTarget is the slot a quiescent switch may fast-forward to: the
// earlier of the next arrival and the horizon.
func (a *arrivals) jumpTarget() int {
	p := a.peek()
	if p == nil {
		return a.horizon()
	}
	if a.slots > 0 && a.slots < p.Arrival {
		return a.slots
	}
	return p.Arrival
}

// done reports whether the run is complete once `slot` slots have been
// simulated. With an open horizon and the stream still alive the answer is
// always no: the eventual horizon exceeds every pending arrival.
func (a *arrivals) done(slot int) bool {
	if a.slots > 0 {
		return slot >= a.slots
	}
	return !a.ok && slot >= a.check.Horizon()
}

// growSeries extends the per-slot benefit series to n entries. A fixed
// horizon sizes it once, up front; an open one grows it as slots complete
// and pads it at the end, leaving the same series either way.
func growSeries(m *Metrics, n int) {
	if len(m.SlotBenefit) >= n {
		return
	}
	if cap(m.SlotBenefit) >= n {
		m.SlotBenefit = m.SlotBenefit[:n]
		return
	}
	grown := make([]int64, n, max(n, 2*cap(m.SlotBenefit)))
	copy(grown, m.SlotBenefit)
	m.SlotBenefit = grown
}
