// Package iq implements the input-queued (IQ) switch model of the
// related work the paper builds on (Section 1.2): m bounded queues
// sharing a single output link, one transmission per time slot.
//
// The paper's conclusion observes that on this model — a CIOQ switch with
// one input port and speedup 1 — GM and PG become the classical
// algorithms of Azar–Richter [6] and the Transmit-Largest-Head algorithm
// [5], and that every IQ lower bound carries over to CIOQ and buffered
// crossbar switches. This package makes those statements executable: it
// provides the IQ algorithms, an EXACT offline optimum (a greedy by value
// that is exact at any scale, since the IQ model has no matching coupling),
// and cross-model equivalence checks against the CIOQ simulator.
//
// Packets use their Out field as the queue index; In is ignored.
package iq

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
)

// Policy decides admission and service for the IQ model.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Discipline selects the queue ordering (FIFO for the classical
	// unit-value policies, ByValue for value-greedy ones).
	Discipline() queue.Discipline
	// Reset prepares for a run on m queues of capacity b.
	Reset(m, b int)
	// Admit decides the fate of packet p arriving to queue p.Out.
	Admit(qs []*queue.Queue, p packet.Packet) AdmitDecision
	// Serve returns the queue to transmit from this slot (-1 = idle).
	// Work-conserving policies never return -1 when a queue is
	// non-empty.
	Serve(qs []*queue.Queue, slot int) int
}

// AdmitDecision mirrors the switchsim admission actions.
type AdmitDecision int

const (
	// Reject drops the arrival.
	Reject AdmitDecision = iota
	// Accept enqueues; error if full.
	Accept
	// AcceptPreemptMin enqueues, preempting the queue minimum if full
	// and strictly worse.
	AcceptPreemptMin
)

// Result carries the outcome of an IQ simulation.
type Result struct {
	Policy    string
	Slots     int
	Arrived   int64
	Accepted  int64
	Rejected  int64
	Preempted int64
	Sent      int64
	Benefit   int64
}

// Run simulates the policy over the sequence on m queues of capacity b.
// The horizon is seq.Horizon() unless slots > 0.
func Run(m, b int, pol Policy, seq packet.Sequence, slots int) (*Result, error) {
	if m < 1 || b < 1 {
		return nil, fmt.Errorf("iq: need m >= 1 queues of capacity >= 1, got m=%d b=%d", m, b)
	}
	if err := seq.Validate(1, m); err != nil {
		// Queue index is carried in Out; In must be 0.
		return nil, fmt.Errorf("iq: bad sequence: %w", err)
	}
	if slots <= 0 {
		slots = seq.Horizon()
	}
	qs := make([]*queue.Queue, m)
	for j := range qs {
		qs[j] = queue.New(b, pol.Discipline())
	}
	pol.Reset(m, b)
	res := &Result{Policy: pol.Name(), Slots: slots}
	arrivals := seq.BySlot(slots)
	for t := 0; t < slots; t++ {
		for _, p := range arrivals[t] {
			res.Arrived++
			q := qs[p.Out]
			switch pol.Admit(qs, p) {
			case Reject:
				res.Rejected++
			case Accept:
				if err := q.Push(p); err != nil {
					return nil, fmt.Errorf("iq: policy accepted %v into full queue %d", p, p.Out)
				}
				res.Accepted++
			case AcceptPreemptMin:
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
		j := pol.Serve(qs, t)
		if j >= 0 {
			if j >= m {
				return nil, fmt.Errorf("iq: policy served out-of-range queue %d", j)
			}
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

// ExactOPT computes the exact offline optimum for the IQ model. The packet
// sets an IQ switch can deliver form a matroid, so taking packets by value,
// highest first, and keeping each that leaves the kept set deliverable is
// exact. With no matching coupling this holds at ANY scale (m, b, packets),
// which makes the IQ model the reference point for lower bounds.
func ExactOPT(m, b int, seq packet.Sequence, slots int) (int64, error) {
	if m < 1 || b < 1 {
		return 0, fmt.Errorf("iq: need m >= 1 queues of capacity >= 1, got m=%d b=%d", m, b)
	}
	if err := seq.Validate(1, m); err != nil {
		return 0, fmt.Errorf("iq: bad sequence: %w", err)
	}
	if slots <= 0 {
		slots = seq.Horizon()
	}
	// A valid sequence is sorted by arrival; its tail from `slots` on never enters.
	n := sort.Search(len(seq), func(k int) bool { return seq[k].Arrival >= slots })
	e := edf{seq: seq[:n], b: b, arr: make([][]int, m), seen: make([]int, m), due: make([]int, slots)}
	byValue := slices.Clone(e.seq)
	slices.SortFunc(byValue, func(x, y packet.Packet) int { return cmp.Compare(y.Value, x.Value) })
	var opt int64
	for _, p := range byValue {
		at := sort.SearchInts(e.arr[p.Out], p.Arrival+1)
		if e.arr[p.Out] = slices.Insert(e.arr[p.Out], at, p.Arrival); e.deliverable() {
			opt += p.Value
		} else {
			e.arr[p.Out] = slices.Delete(e.arr[p.Out], at, at+1)
		}
	}
	return opt, nil
}

// edf decides whether the kept packets are deliverable. Serving each queue
// FIFO loses nothing, so a queue's k-th kept packet must leave before the
// (k+b)-th arrives: a unit job on the one output with release a_k and
// deadline min(a_{k+b}, slots) − 1, which earliest-deadline-first meets
// whenever any schedule does.
type edf struct {
	seq  packet.Sequence // the packets arriving before the horizon
	b    int
	arr  [][]int // per queue, the kept packets' arrival slots, ascending
	seen []int   // per queue, kept packets released so far in this sweep
	due  []int   // pending jobs by deadline slot
}

// deliverable sweeps the slots once, releasing each kept packet at its
// arrival and serving the pending job with the earliest deadline.
func (e *edf) deliverable() bool {
	clear(e.seen)
	clear(e.due)
	slots := len(e.due)
	pending, lo, k := 0, slots, 0
	for t := range slots {
		for ; k < len(e.seq) && e.seq[k].Arrival == t; k++ {
			j := e.seq[k].Out
			q, i := e.arr[j], e.seen[j]
			if i == len(q) || q[i] != t {
				continue // queue j keeps no more packets of slot t
			}
			d := slots
			if i+e.b < len(q) {
				d = q[i+e.b]
			}
			if d <= t {
				return false
			}
			e.seen[j]++
			e.due[d-1]++
			pending++
			lo = min(lo, d-1)
		}
		if pending == 0 {
			continue
		}
		for e.due[lo] == 0 {
			lo++
		}
		if lo < t {
			return false
		}
		e.due[lo]--
		pending--
	}
	return pending == 0
}
