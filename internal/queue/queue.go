// Package queue implements the capacity-bounded, non-FIFO packet queues
// used at the input, crosspoint and output ports of the simulated switches.
//
// The paper's model stores packets in arbitrary order ("non-FIFO queues"),
// and its weighted algorithms always act on the extremes: they transfer or
// transmit the most valuable packet and preempt the least valuable one.
// A queue therefore maintains its packets in the canonical priority order
// (value descending, ties broken by packet ID ascending — the paper's
// Assumption A3 of consistent tie-breaking), giving O(1) access to both the
// head (greatest value) and the tail (least value). A FIFO discipline is
// also provided for the unit-value algorithms, where arrival order is the
// natural (and equivalent) choice.
//
// Storage is a power-of-two ring buffer indexed from a moving head, so the
// simulator's hot operations — PopHead in the transfer and transmission
// phases, tail preemption in PushPreempt — are O(1) with no data movement,
// and a priority insertion shifts whichever side of the ring is shorter.
// Queues never allocate after reaching their high-water occupancy.
package queue

import (
	"errors"
	"fmt"

	"qswitch/internal/packet"
)

// Discipline selects the internal ordering of a queue.
type Discipline int

const (
	// FIFO keeps packets in insertion order; Head is the oldest packet.
	FIFO Discipline = iota
	// ByValue keeps packets sorted by (value desc, ID asc); Head is the
	// most valuable packet and Tail the least valuable.
	ByValue
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case ByValue:
		return "byvalue"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// ErrFull is returned by Push when the queue is at capacity.
var ErrFull = errors.New("queue: full")

// Queue is a bounded packet buffer. The zero value is not usable; use New.
type Queue struct {
	capacity int
	disc     Discipline
	buf      []packet.Packet // ring storage; len(buf) is a power of two
	head     int             // ring index of queue position 0
	n        int             // packets stored
}

// New returns an empty queue with the given capacity and discipline.
// Capacity must be at least 1.
func New(capacity int, d Discipline) *Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: capacity must be >= 1, got %d", capacity))
	}
	return &Queue{capacity: capacity, disc: d, buf: make([]packet.Packet, ceilPow2(min(capacity, 64)))}
}

// NewBatch returns k independent queues of the given capacity and
// discipline whose headers and ring storage share two allocations. The
// switch simulators use it to build their Inputs×Outputs queue grids
// without thousands of small allocations; a queue that later outgrows
// its ring slice (capacity > 64 only) detaches onto its own storage.
func NewBatch(k, capacity int, d Discipline) []Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: capacity must be >= 1, got %d", capacity))
	}
	ring := ceilPow2(min(capacity, 64))
	backing := make([]packet.Packet, k*ring)
	qs := make([]Queue, k)
	for i := range qs {
		qs[i] = Queue{capacity: capacity, disc: d, buf: backing[i*ring : (i+1)*ring : (i+1)*ring]}
	}
	return qs
}

// Len returns the number of packets currently stored.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.n == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.n >= q.capacity }

// idx maps queue position k (0 = head) to a ring index.
func (q *Queue) idx(k int) int { return (q.head + k) & (len(q.buf) - 1) }

// Head returns the packet at the queue's head without removing it:
// the oldest packet under FIFO, the most valuable under ByValue.
func (q *Queue) Head() (packet.Packet, bool) {
	if q.n == 0 {
		return packet.Packet{}, false
	}
	return q.buf[q.head], true
}

// Tail returns the packet at the queue's tail without removing it:
// the newest packet under FIFO, the least valuable under ByValue.
func (q *Queue) Tail() (packet.Packet, bool) {
	if q.n == 0 {
		return packet.Packet{}, false
	}
	return q.buf[q.idx(q.n-1)], true
}

// Push inserts p, returning ErrFull if there is no room. Under ByValue the
// packet is placed at its priority position; under FIFO it is appended.
func (q *Queue) Push(p packet.Packet) error {
	if q.Full() {
		return ErrFull
	}
	q.insert(p)
	return nil
}

// PushPreempt inserts p, preempting the tail packet if the queue is full
// and the tail is strictly worse than p (under ByValue ordering: lower
// value, or equal value and higher ID). It implements the paper's
// preemptive admission rule "accept p if |Q| < B or v(l) < v(p)".
//
// The returned status reports whether p was accepted and, if a packet was
// preempted to make room, which one.
func (q *Queue) PushPreempt(p packet.Packet) (preempted packet.Packet, didPreempt, accepted bool) {
	if !q.Full() {
		q.insert(p)
		return packet.Packet{}, false, true
	}
	tail := q.buf[q.idx(q.n-1)]
	// Strict value comparison per the paper: equal-value packets do not
	// preempt each other.
	if tail.Value >= p.Value {
		return packet.Packet{}, false, false
	}
	q.n--
	q.insert(p)
	return tail, true, true
}

// MinValue returns the packet with the least value in the queue (ties by
// highest ID, i.e. the one the canonical order ranks last). Under ByValue
// this is the tail in O(1); under FIFO it scans.
func (q *Queue) MinValue() (packet.Packet, bool) {
	if q.n == 0 {
		return packet.Packet{}, false
	}
	if q.disc == ByValue {
		return q.buf[q.idx(q.n-1)], true
	}
	best := q.buf[q.head]
	for k := 1; k < q.n; k++ {
		if p := q.buf[q.idx(k)]; packet.Less(best, p) {
			best = p
		}
	}
	return best, true
}

// PushPreemptMin inserts p, preempting the queue's LEAST-VALUABLE packet
// (wherever it sits) if the queue is full and that packet is strictly
// worse than p. Under ByValue it coincides with PushPreempt; under FIFO
// it implements the preemption rule of the FIFO buffer-management
// literature, where packets depart in arrival order but any buffered
// packet may be dropped.
func (q *Queue) PushPreemptMin(p packet.Packet) (preempted packet.Packet, didPreempt, accepted bool) {
	if !q.Full() {
		q.insert(p)
		return packet.Packet{}, false, true
	}
	min, _ := q.MinValue()
	if min.Value >= p.Value {
		return packet.Packet{}, false, false
	}
	// Remove the minimum, preserving order of the rest.
	for k := 0; k < q.n; k++ {
		if q.buf[q.idx(k)].ID == min.ID {
			q.removeAt(k)
			break
		}
	}
	q.insert(p)
	return min, true, true
}

// PopHead removes and returns the head packet.
func (q *Queue) PopHead() (packet.Packet, bool) {
	if q.n == 0 {
		return packet.Packet{}, false
	}
	p := q.buf[q.head]
	q.head = q.idx(1)
	q.n--
	return p, true
}

// Reset empties the queue.
func (q *Queue) Reset() { q.head, q.n = 0, 0 }

// CheckInvariants verifies internal consistency: length within capacity
// and, under ByValue, correct priority ordering. It returns a descriptive
// error on violation and is called by the simulator's validation mode.
func (q *Queue) CheckInvariants() error {
	if q.n > q.capacity {
		return fmt.Errorf("queue: length %d exceeds capacity %d", q.n, q.capacity)
	}
	if len(q.buf)&(len(q.buf)-1) != 0 || q.n > len(q.buf) {
		return fmt.Errorf("queue: bad ring geometry len=%d n=%d", len(q.buf), q.n)
	}
	if q.disc == ByValue {
		for k := 1; k < q.n; k++ {
			a, b := q.buf[q.idx(k-1)], q.buf[q.idx(k)]
			if !packet.Less(a, b) {
				return fmt.Errorf("queue: order violation at %d: %v before %v", k, a, b)
			}
		}
	}
	return nil
}

// insert places p according to the discipline. The caller guarantees room
// with respect to capacity; the ring grows if the backing array is full.
func (q *Queue) insert(p packet.Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	if q.disc == FIFO {
		q.buf[q.idx(q.n)] = p
		q.n++
		return
	}
	// Binary search for the insertion point in (value desc, ID asc) order.
	lo, hi := 0, q.n
	for lo < hi {
		mid := (lo + hi) / 2
		if packet.Less(q.buf[q.idx(mid)], p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Open position lo by shifting the shorter side of the ring.
	if lo <= q.n-lo {
		// Shift the head segment [0, lo) one slot toward the new head.
		q.head = (q.head - 1) & (len(q.buf) - 1)
		for k := 0; k < lo; k++ {
			q.buf[q.idx(k)] = q.buf[q.idx(k+1)]
		}
	} else {
		// Shift the tail segment [lo, n) one slot away from the head.
		for k := q.n; k > lo; k-- {
			q.buf[q.idx(k)] = q.buf[q.idx(k-1)]
		}
	}
	q.buf[q.idx(lo)] = p
	q.n++
}

// removeAt deletes the packet at queue position k, preserving the order of
// the rest by closing the gap from the shorter side.
func (q *Queue) removeAt(k int) {
	if k <= q.n-1-k {
		// Shift the head segment [0, k) one slot toward the tail.
		for j := k; j > 0; j-- {
			q.buf[q.idx(j)] = q.buf[q.idx(j-1)]
		}
		q.head = q.idx(1)
	} else {
		// Shift the tail segment (k, n) one slot toward the head.
		for j := k; j < q.n-1; j++ {
			q.buf[q.idx(j)] = q.buf[q.idx(j+1)]
		}
	}
	q.n--
}

// grow doubles the ring, unwrapping the contents to index 0.
func (q *Queue) grow() {
	nb := make([]packet.Packet, len(q.buf)*2)
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf, q.head = nb, 0
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
