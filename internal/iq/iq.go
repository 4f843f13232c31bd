// Package iq holds the input-queued (IQ) switch model of the related work
// the paper builds on (Section 1.2): m bounded queues sharing one output
// link, one transmission per slot. Packets carry the queue index in Out.
//
// The paper's conclusion observes that this model is a CIOQ switch with
// one input port and speedup 1, on which GM and PG become the classical
// algorithms of Azar–Richter [6] and Transmit-Largest-Head [5], and that
// every IQ lower bound carries over to CIOQ and buffered crossbar
// switches. So the model runs on switchsim.RunCIOQ over Reduction, with
// core.GM as its greedy policies. This package owns the rest: LargestHead
// and an EXACT offline optimum, a greedy by value that is exact at any
// scale since the model has no matching coupling.
package iq

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/switchsim"
)

// Reduction is the IQ model with m queues of capacity b as a CIOQ switch:
// one input port, m outputs holding the one packet a slot sends, and
// speedup 1. slots is the horizon (0 derives it from the sequence).
func Reduction(m, b, slots int) switchsim.Config {
	return switchsim.Config{Inputs: 1, Outputs: m, InputBuf: b, OutputBuf: 1, Speedup: 1, Slots: slots}
}

// LargestHead is the Transmit-Largest-Head policy of Azar–Richter [5] on
// the IQ reduction: a full queue admits an arrival by preempting its least
// valuable packet if strictly worse, and each slot the queue whose head is
// first in packet.Less order (largest value, ties to the lower packet ID)
// transmits. FIFO queues make it TLH, 3-competitive (3 - 1/α for values in
// [1, α], Itoh–Takahashi); ByValue ones send the switch's most valuable
// packet. It schedules input 0 only and never checks an output for room:
// each output sends its packet in the slot it arrives.
type LargestHead struct {
	// ByValue selects value-ordered queues instead of FIFO ones.
	ByValue bool

	transfer [1]switchsim.Transfer
}

// Name implements switchsim.CIOQPolicy.
func (l *LargestHead) Name() string {
	if l.ByValue {
		return "iq-maxhead"
	}
	return "iq-tlh"
}

// Disciplines implements switchsim.CIOQPolicy.
func (l *LargestHead) Disciplines() (queue.Discipline, queue.Discipline) {
	if l.ByValue {
		return queue.ByValue, queue.ByValue
	}
	return queue.FIFO, queue.FIFO
}

// Reset implements switchsim.CIOQPolicy; the policy keeps no state.
func (l *LargestHead) Reset(switchsim.Config) {}

// IdleAdvance implements switchsim.IdleAdvancer: nothing runs free.
func (l *LargestHead) IdleAdvance(int) {}

// Admit implements switchsim.CIOQPolicy.
func (l *LargestHead) Admit(*switchsim.CIOQ, packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreemptMin
}

// Schedule implements switchsim.CIOQPolicy: transfer the largest head
// among input 0's non-empty queues.
func (l *LargestHead) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	best := -1
	var bestHead packet.Packet
	for w, word := range sw.VOQ.Row(0) {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			if head, _ := sw.IQ[0][j].Head(); best < 0 || packet.Less(head, bestHead) {
				best, bestHead = j, head
			}
		}
	}
	if best < 0 {
		return nil
	}
	l.transfer[0] = switchsim.Transfer{Out: best}
	return l.transfer[:]
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
