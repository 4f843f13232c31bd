package iq

import (
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
)

// The IQ model's own slot simulator and its four classical policies, kept
// as a test-only reference. It shares nothing with the CIOQ engine but
// package queue, so TestReductionMatchesIQOracle and
// TestGMReductionEquivalence check the paper's reduction against an
// independent implementation of the model.

// refPolicy decides admission and service for the reference simulator.
type refPolicy interface {
	// discipline selects the queue ordering.
	discipline() queue.Discipline
	// admit decides the fate of packet p arriving to queue p.Out.
	admit(qs []*queue.Queue, p packet.Packet) refAdmit
	// serve returns the queue to transmit from this slot (-1 = idle).
	serve(qs []*queue.Queue) int
}

// refAdmit mirrors the switchsim admission actions.
type refAdmit int

const (
	// refReject drops the arrival.
	refReject refAdmit = iota
	// refAccept enqueues; error if full.
	refAccept
	// refAcceptPreemptMin enqueues, preempting the queue minimum if full
	// and strictly worse.
	refAcceptPreemptMin
)

// refResult carries the counters the reference simulator shares with
// switchsim.Metrics.
type refResult struct {
	Arrived, Accepted, Rejected, Preempted, Sent, Benefit int64
}

// refRun simulates the policy over the sequence on m queues of capacity
// b. The horizon is seq.Horizon() unless slots > 0.
func refRun(m, b int, pol refPolicy, seq packet.Sequence, slots int) (*refResult, error) {
	if m < 1 || b < 1 {
		return nil, fmt.Errorf("iq: need m >= 1 queues of capacity >= 1, got m=%d b=%d", m, b)
	}
	if err := seq.Validate(1, m); err != nil {
		return nil, fmt.Errorf("iq: bad sequence: %w", err)
	}
	if slots <= 0 {
		slots = seq.Horizon()
	}
	qs := make([]*queue.Queue, m)
	for j := range qs {
		qs[j] = queue.New(b, pol.discipline())
	}
	res := &refResult{}
	arrivals := seq.BySlot(slots)
	for t := 0; t < slots; t++ {
		for _, p := range arrivals[t] {
			res.Arrived++
			q := qs[p.Out]
			switch pol.admit(qs, p) {
			case refReject:
				res.Rejected++
			case refAccept:
				if err := q.Push(p); err != nil {
					return nil, fmt.Errorf("iq: policy accepted %v into full queue %d", p, p.Out)
				}
				res.Accepted++
			case refAcceptPreemptMin:
				_, preempted, accepted := q.PushPreemptMin(p)
				if !accepted {
					res.Rejected++
					continue
				}
				res.Accepted++
				if preempted {
					res.Preempted++
				}
			}
		}
		if j := pol.serve(qs); j >= 0 {
			p, ok := qs[j].PopHead()
			if !ok {
				return nil, fmt.Errorf("iq: policy served empty queue %d", j)
			}
			res.Sent++
			res.Benefit += p.Value
		}
	}
	return res, nil
}

// refGreedy is the unit-value greedy policy: accept when there is room,
// serve a longest non-empty queue (ties: lowest index), or with
// firstNonEmpty the lowest-indexed non-empty queue.
type refGreedy struct{ firstNonEmpty bool }

func (g *refGreedy) discipline() queue.Discipline { return queue.FIFO }

func (g *refGreedy) admit(qs []*queue.Queue, p packet.Packet) refAdmit {
	if qs[p.Out].Full() {
		return refReject
	}
	return refAccept
}

func (g *refGreedy) serve(qs []*queue.Queue) int {
	best, bestLen := -1, 0
	for j := range qs {
		if l := qs[j].Len(); l > bestLen {
			if g.firstNonEmpty {
				return j
			}
			best, bestLen = j, l
		}
	}
	return best
}

// refLargestHead is Transmit-Largest-Head: preempt-the-minimum admission,
// and each slot the queue whose head comes first in packet.Less order
// transmits. FIFO queues make it TLH, value-ordered ones MaxHead.
type refLargestHead struct{ disc queue.Discipline }

func (t *refLargestHead) discipline() queue.Discipline { return t.disc }

func (t *refLargestHead) admit([]*queue.Queue, packet.Packet) refAdmit {
	return refAcceptPreemptMin
}

func (t *refLargestHead) serve(qs []*queue.Queue) int {
	best := -1
	var bestHead packet.Packet
	for j := range qs {
		head, ok := qs[j].Head()
		if !ok {
			continue
		}
		if best < 0 || packet.Less(head, bestHead) {
			best, bestHead = j, head
		}
	}
	return best
}
