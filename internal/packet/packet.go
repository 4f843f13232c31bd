package packet

import (
	"fmt"
	"sort"
)

// Packet is a fixed-size unit of traffic traversing the switch.
//
// ID is unique within a sequence and doubles as the deterministic
// tie-breaker whenever two packets have equal value (the paper's
// Assumption A3: "ties are broken arbitrarily but consistently").
type Packet struct {
	ID      int64 // unique, ascending in arrival order
	Arrival int   // time slot of arrival, 0-based
	In      int   // ingress port, 0-based
	Out     int   // egress port, 0-based
	Value   int64 // service value, >= 1 (1 for the unit-value case)
}

// String renders a compact human-readable form used in error messages.
func (p Packet) String() string {
	return fmt.Sprintf("pkt{id=%d t=%d %d->%d v=%d}", p.ID, p.Arrival, p.In, p.Out, p.Value)
}

// Less orders packets by value descending, then by ID ascending. It defines
// the canonical priority order used by all value-aware queues and policies.
func Less(a, b Packet) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.ID < b.ID
}

// Sequence is an arrival sequence: packets sorted by (Arrival, ID).
type Sequence []Packet

// Validate checks structural well-formedness of a sequence against the
// given port counts: sorted arrivals, unique ascending IDs, ports in range
// and strictly positive values.
func (s Sequence) Validate(inputs, outputs int) error {
	v := NewValidator(inputs, outputs)
	for k := range s {
		if !v.Accept(&s[k]) {
			return v.Reject(&s[k])
		}
	}
	return nil
}

// Validator is Sequence.Validate in incremental form: it checks packets
// one at a time as a consumer pulls them from a stream, so the batch and
// the streamed check are one rule set with one set of error texts.
type Validator struct {
	inputs, outputs int
	count           int64 // packets accepted so far
	lastArrival     int
	lastID          int64
}

// NewValidator returns a validator for the given port counts.
func NewValidator(inputs, outputs int) Validator {
	return Validator{inputs: inputs, outputs: outputs, lastID: -1}
}

// Accept reports whether p is a well-formed next packet of the sequence,
// and counts it if so. It is the per-packet hot path and small enough to
// inline; Reject words the refusal.
func (v *Validator) Accept(p *Packet) bool {
	ok := p.Arrival >= v.lastArrival && p.ID > v.lastID &&
		p.In >= 0 && p.In < v.inputs && p.Out >= 0 && p.Out < v.outputs && p.Value >= 1
	if ok {
		v.lastArrival, v.lastID = p.Arrival, p.ID
		v.count++
	}
	return ok
}

// Reject returns the error for a packet Accept just refused, naming the
// packet by its position in the sequence.
func (v Validator) Reject(p *Packet) error {
	switch k := v.count; {
	case p.Arrival < v.lastArrival:
		return fmt.Errorf("packet %d: arrival %d before previous %d", k, p.Arrival, v.lastArrival)
	case p.ID <= v.lastID:
		return fmt.Errorf("packet %d: id %d not ascending (prev %d)", k, p.ID, v.lastID)
	case p.In < 0 || p.In >= v.inputs:
		return fmt.Errorf("packet %d: input port %d out of range [0,%d)", k, p.In, v.inputs)
	case p.Out < 0 || p.Out >= v.outputs:
		return fmt.Errorf("packet %d: output port %d out of range [0,%d)", k, p.Out, v.outputs)
	default:
		return fmt.Errorf("packet %d: value %d < 1", k, p.Value)
	}
}

// Horizon is Sequence.Horizon of the packets accepted so far: last arrival
// + 1 + their number, at least one slot.
func (v *Validator) Horizon() int { return max(1, v.lastArrival+1+int(v.count)) }

// TotalValue sums the values of all packets in the sequence.
func (s Sequence) TotalValue() int64 {
	var t int64
	for _, p := range s {
		t += p.Value
	}
	return t
}

// MaxSlot returns the largest arrival slot in the sequence, or -1 if empty.
func (s Sequence) MaxSlot() int {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1].Arrival
}

// Horizon returns the number of simulation slots needed to both admit every
// packet and drain any backlog: last arrival + the number of packets
// (at one transmission per output per slot nothing can remain after that),
// with a minimum of one slot.
func (s Sequence) Horizon() int {
	h := s.MaxSlot() + 1 + len(s)
	if h < 1 {
		h = 1
	}
	return h
}

// NextArrival returns the earliest arrival slot >= from, or -1 when no
// packet arrives at or after that slot. The sequence is sorted by
// arrival, so this is a binary search; callers that advance through the
// sequence monotonically (the event-driven simulators) instead keep a
// cursor and read the next packet's Arrival in O(1). It never allocates.
func (s Sequence) NextArrival(from int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Arrival < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s) {
		return -1
	}
	return s[lo].Arrival
}

// BySlot splits the sequence into per-slot arrival groups covering slots
// [0, slots). Packets arriving at or beyond `slots` are dropped from the
// grouping (they can never be admitted within the simulated horizon).
func (s Sequence) BySlot(slots int) [][]Packet {
	out := make([][]Packet, slots)
	// A well-formed sequence is sorted by (Arrival, ID), so each slot's
	// packets are a contiguous run and the per-slot views can alias the
	// sequence with no copying. Callers must not mutate the views.
	for k := 0; k < len(s); {
		a := s[k].Arrival
		start := k
		for k < len(s) && s[k].Arrival == a {
			k++
		}
		if a < 0 || a >= slots {
			continue
		}
		if out[a] != nil {
			// Unsorted input (never produced by generators, but BySlot
			// historically tolerated it): fall back to copying.
			return s.bySlotUnsorted(slots)
		}
		out[a] = s[start:k:k]
	}
	return out
}

func (s Sequence) bySlotUnsorted(slots int) [][]Packet {
	out := make([][]Packet, slots)
	for _, p := range s {
		if p.Arrival >= 0 && p.Arrival < slots {
			out[p.Arrival] = append(out[p.Arrival], p)
		}
	}
	return out
}

// Normalize sorts the sequence by (Arrival, ID) and reassigns IDs to be the
// ascending sequence 0..len-1 in that order. It is used by generators that
// assemble traffic from independent sub-streams. One pass first checks for
// strictly ascending (Arrival, ID) order, which every slot-major source
// emits; only a violation (an inversion, or two packets with equal Arrival
// and ID) pays for the sort.
func (s Sequence) Normalize() Sequence {
	for i := 1; i < len(s); i++ {
		if p, q := s[i-1], s[i]; p.Arrival > q.Arrival || p.Arrival == q.Arrival && p.ID >= q.ID {
			sort.Slice(s, func(a, b int) bool {
				if s[a].Arrival != s[b].Arrival {
					return s[a].Arrival < s[b].Arrival
				}
				return s[a].ID < s[b].ID
			})
			break
		}
	}
	for i := range s {
		s[i].ID = int64(i)
	}
	return s
}

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// IsUnit reports whether all packets have value exactly 1.
func (s Sequence) IsUnit() bool {
	for _, p := range s {
		if p.Value != 1 {
			return false
		}
	}
	return true
}

// CountByPair returns an Inputs x Outputs matrix of packet counts, useful
// for asserting generator traffic matrices in tests.
func (s Sequence) CountByPair(inputs, outputs int) [][]int {
	m := make([][]int, inputs)
	for i := range m {
		m[i] = make([]int, outputs)
	}
	for _, p := range s {
		if p.In >= 0 && p.In < inputs && p.Out >= 0 && p.Out < outputs {
			m[p.In][p.Out]++
		}
	}
	return m
}
