package offline

import (
	"cmp"
	"math/bits"
	"slices"

	"qswitch/internal/packet"
)

// sweepQueue is one bounded-buffer relaxed queue read forward in time:
// packets arrive at given slots, the buffer holds at most bufCap packets
// at any time, up to sendCap are transmitted per slot, and preemption is
// free. The queue has no FIFO constraint, so its offline optimum needs no
// lookahead: keep the bufCap most valuable packets, send the most valuable
// first. Exchange argument — if an optimal schedule evicts x while holding
// a cheaper y, swap their roles from that slot on: y's later send slot (if
// any) carries x instead, nothing overflows because the occupancy is the
// same, and the value does not drop; likewise a schedule that sends y in a
// slot where it holds a dearer x can send x there and give y whatever x
// got later. It is the gammoid greedy of the time-expanded line graph read
// in arrival order instead of value order.
//
// Cost is O(log bufCap) a packet, O(1) when values are equal (every heap
// comparison is strict, so nothing moves), and O(1) for any empty stretch:
// a gap between arrivals settles min(buffered, sendCap·gap) sends, never a
// slot at a time, so a 10^6-slot sparse trace costs what its packets cost.
//
// A queue that only ever sees value-1 packets needs no heap at all: which
// packet is kept or sent cannot matter, so it runs as a plain counter
// (arriveUnit, settleUnit) — its buffered count beside the same clock,
// benefit and epochs — and returns the integers the heap would. A queue is
// fed one way or the other from its reset on, never both; UpperBoundSolver
// restarts its whole sweep on the heaps when a valued packet turns up.
type sweepQueue struct {
	clock   int        // first slot whose sends are not yet settled
	benefit int64      // value sent in slots before clock
	epochs  int64      // distinct arrival slots seen (the probes' epochs)
	count   int64      // value-1 packets buffered (counter form only)
	buf     minMaxHeap // values buffered at the start of slot clock's sends
}

// reset empties the queue, keeping the heap's storage.
func (q *sweepQueue) reset() {
	q.clock, q.benefit, q.epochs, q.count, q.buf = -1, 0, 0, 0, q.buf[:0]
}

// arriveUnit is arrive for a value-1 packet on a counter-form queue.
func (q *sweepQueue) arriveUnit(t int, bufCap, sendCap int64) {
	if t > q.clock {
		q.epochs++
		q.settleUnit(t, sendCap)
	}
	if q.count < bufCap {
		q.count++
	}
}

// settleUnit is settle on a counter-form queue.
func (q *sweepQueue) settleUnit(t int, sendCap int64) int64 {
	if n, gap := q.count, int64(t-q.clock); n > 0 {
		// As in settle: both factors are below n when multiplied.
		if gap >= n || sendCap >= n || sendCap*gap >= n {
			q.benefit += n
			q.count = 0
		} else {
			q.benefit += sendCap * gap
			q.count -= sendCap * gap
		}
	}
	q.clock = t
	return q.benefit
}

// arrive admits a packet of value v arriving at slot t >= clock.
func (q *sweepQueue) arrive(t int, v, bufCap, sendCap int64) {
	if t > q.clock {
		q.epochs++
		q.settle(t, sendCap)
	}
	if int64(len(q.buf)) < bufCap {
		q.buf.push(v)
	} else if v > q.buf[0] {
		q.buf.replaceMin(v)
	}
}

// settle performs the sends of slots [clock, t) and returns the benefit
// so far; settling at the horizon finishes the queue — what is still
// buffered then is lost.
func (q *sweepQueue) settle(t int, sendCap int64) int64 {
	if n, gap := int64(len(q.buf)), int64(t-q.clock); n > 0 {
		// sendCap·gap >= n; both factors are below n when multiplied.
		if gap >= n || sendCap >= n || sendCap*gap >= n {
			for _, v := range q.buf {
				q.benefit += v
			}
			q.buf = q.buf[:0]
		} else {
			for k := sendCap * gap; k > 0; k-- {
				q.benefit += q.buf.popMax()
			}
		}
	}
	q.clock = t
	return q.benefit
}

// minMaxHeap is a double-ended priority queue of values (Atkinson et al.):
// a binary heap whose even levels are ordered as a min-heap over their
// subtrees and odd levels as a max-heap, so the minimum is h[0] and the
// maximum one of h[1], h[2].
type minMaxHeap []int64

// onMinLevel reports whether index i lies on an even (min) level.
func onMinLevel(i int) bool { return bits.Len(uint(i+1))&1 == 1 }

// before reports whether a belongs nearer the root than b on a min level
// (lo true) or a max level.
func before(a, b int64, lo bool) bool {
	if lo {
		return a < b
	}
	return a > b
}

func (h *minMaxHeap) push(v int64) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	if i == 0 {
		return
	}
	lo := onMinLevel(i)
	if p := (i - 1) >> 1; before(s[p], s[i], lo) { // belongs on the parent's kind of level
		s[p], s[i] = s[i], s[p]
		i, lo = p, !lo
	}
	for i > 2 {
		g := (i - 3) >> 2 // grandparent
		if !before(s[i], s[g], lo) {
			break
		}
		s[g], s[i] = s[i], s[g]
		i = g
	}
}

// replaceMin overwrites the minimum with v.
func (h minMaxHeap) replaceMin(v int64) {
	h[0] = v
	h.trickleDown(0, true)
}

// popMax removes and returns the maximum.
func (h *minMaxHeap) popMax() int64 {
	s := *h
	last := len(s) - 1
	i := min(last, 1)
	if last >= 2 && s[2] > s[1] {
		i = 2
	}
	v := s[i]
	*h = s[:last]
	if s[last] != v { // else dropping the last leaf is the same multiset
		s[i] = s[last]
		s[:last].trickleDown(i, false)
	}
	return v
}

// trickleDown restores the heap below index i, which lies on a min level
// (lo true) or a max level.
func (h minMaxHeap) trickleDown(i int, lo bool) {
	for {
		// m: the extreme among i's children and grandchildren.
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		m := c
		if c+1 < len(h) && before(h[c+1], h[m], lo) {
			m = c + 1
		}
		for g := 4*i + 3; g < len(h) && g <= 4*i+6; g++ {
			if before(h[g], h[m], lo) {
				m = g
			}
		}
		if !before(h[m], h[i], lo) {
			return
		}
		h[m], h[i] = h[i], h[m]
		if m <= c+1 { // a child: nothing below it can be out of order
			return
		}
		if p := (m - 1) >> 1; before(h[p], h[m], lo) {
			h[p], h[m] = h[m], h[p]
		}
		i = m
	}
}

// QueueOPTSolver is the reusable engine for the bounded-buffer
// single-queue offline optimum (see SingleQueueOPT, sweepQueue). The zero
// value is ready to use; all scratch is reused across solves, so repeated
// solves allocate nothing once warm.
type QueueOPTSolver struct {
	q      sweepQueue
	sorted []packet.Packet // arrival-ordered copy, only for unordered input
}

// Solve returns the optimum delivered value. The packet order is free (an
// input out of arrival order is swept from a sorted scratch copy); packets
// arriving at or after the horizon, and packets of non-positive value,
// never contribute.
func (s *QueueOPTSolver) Solve(pkts []packet.Packet, slots int, bufCap, sendCap int64) int64 {
	if slots <= 0 || bufCap <= 0 || sendCap <= 0 {
		judgeProbes.Load().RecordSolve(int64(len(pkts)), 0)
		return 0
	}
	byArrival := func(a, b packet.Packet) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(pkts, byArrival) {
		s.sorted = append(s.sorted[:0], pkts...)
		slices.SortFunc(s.sorted, byArrival)
		pkts = s.sorted
	}
	s.q.reset()
	for k := range pkts {
		if p := &pkts[k]; p.Arrival < slots && p.Value > 0 {
			s.q.arrive(p.Arrival, p.Value, bufCap, sendCap)
		}
	}
	judgeProbes.Load().RecordSolve(int64(len(pkts)), s.q.epochs)
	return s.q.settle(slots, sendCap)
}
