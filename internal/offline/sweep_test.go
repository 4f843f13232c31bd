// The single-queue optimum as a standalone solve, and its reusable
// engine: the reference that the differential suite, FuzzSingleQueueOPT
// and the judge allocation pins run one sweepQueue through. No binary
// calls a lone single-queue solve, so it lives with the tests.

package offline

import (
	"cmp"
	"slices"

	"qswitch/internal/packet"
)

// SingleQueueOPT computes the exact offline optimum of the bounded-buffer
// single-queue problem: packets arrive at given slots, the buffer holds at
// most bufCap packets at any time, one packet is transmitted per slot, and
// preemption (discarding buffered packets) is free. This is exactly the
// offline problem faced by one output port of an ideal OQ switch, solved
// by one forward sweep (see sweepQueue); the tests hold it exact-equal to a
// min-cost-flow reference on every instance.
func SingleQueueOPT(pkts []packet.Packet, slots int, bufCap int64) int64 {
	var q QueueOPTSolver
	return q.Solve(pkts, slots, bufCap, 1)
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
		judgeProbes.Load().RecordSolves(1, int64(len(pkts)), 0)
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
	judgeProbes.Load().RecordSolves(1, int64(len(pkts)), s.q.epochs)
	return s.q.settle(slots, sendCap)
}
