package core

import (
	"math/bits"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/switchsim"
)

// KKSFIFO is a FIFO-queue buffered-crossbar scheduler in the spirit of
// Kesselman, Kogan and Segal's packet-mode/QoS algorithms for buffered
// crossbars with FIFO queuing (the 19.95-competitive line of related
// work). Queues release packets strictly in arrival order; admission and
// transfers preempt the least-valuable buffered packet when beaten by the
// factor Beta.
//
// Like ARFIFO it is a related-work baseline, not one of the paper's
// algorithms: it completes the FIFO-vs-non-FIFO comparison (E15) on the
// crossbar side.
type KKSFIFO struct {
	// Beta is the preemption factor; 2 if zero.
	Beta float64

	cfg       switchsim.Config
	beta      float64
	transfers []switchsim.Transfer
}

// Name implements switchsim.CrossbarPolicy.
func (k *KKSFIFO) Name() string { return "kks-fifo" }

// Disciplines implements switchsim.CrossbarPolicy.
func (k *KKSFIFO) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO, queue.FIFO
}

// Reset implements switchsim.CrossbarPolicy.
func (k *KKSFIFO) Reset(cfg switchsim.Config) {
	k.cfg = cfg
	k.beta = Threshold(k.Beta, 2)
	k.transfers = k.transfers[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: KKSFIFO keeps no state
// between cycles beyond its scratch buffers.
func (k *KKSFIFO) IdleAdvance(int) {}

// Admit implements switchsim.CrossbarPolicy.
func (k *KKSFIFO) Admit(sw *switchsim.Crossbar, p packet.Packet) switchsim.AdmitAction {
	q := sw.IQ[p.In][p.Out]
	if !q.Full() {
		return switchsim.Accept
	}
	if min, ok := q.MinValue(); ok && float64(p.Value) > k.beta*float64(min.Value) {
		return switchsim.AcceptPreemptMin
	}
	return switchsim.Reject
}

// InputSubphase implements switchsim.CrossbarPolicy: per input port, move
// the most valuable FIFO head among eligible queues (candidates from the
// non-empty-VOQ bitmask; crosspoints with room skip the value check).
func (k *KKSFIFO) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n := k.cfg.Inputs
	k.transfers = k.transfers[:0]
	for i := 0; i < n; i++ {
		bestJ := -1
		var best packet.Packet
		xfree := sw.XFree.Row(i)
		for w, word := range sw.VOQ.Row(i) {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				head, _ := sw.IQ[i][j].Head()
				if xfree.Test(j) || k.eligible(sw.XQ[i][j], head.Value) {
					if bestJ < 0 || packet.Less(head, best) {
						bestJ, best = j, head
					}
				}
			}
		}
		if bestJ >= 0 {
			k.transfers = append(k.transfers, switchsim.Transfer{In: i, Out: bestJ, PreemptMinIfFull: true})
		}
	}
	return k.transfers
}

// OutputSubphase implements switchsim.CrossbarPolicy: per output port,
// pull the most valuable crosspoint FIFO head, beta-gated at the output.
func (k *KKSFIFO) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	m := k.cfg.Outputs
	k.transfers = k.transfers[:0]
	for j := 0; j < m; j++ {
		bestI := -1
		var best packet.Packet
		for w, word := range sw.XBusyByOut.Row(j) {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				head, _ := sw.XQ[i][j].Head()
				if bestI < 0 || packet.Less(head, best) {
					bestI, best = i, head
				}
			}
		}
		if bestI < 0 {
			continue
		}
		if sw.OutFree.Test(j) || k.eligible(sw.OQ[j], best.Value) {
			k.transfers = append(k.transfers, switchsim.Transfer{In: bestI, Out: j, PreemptMinIfFull: true})
		}
	}
	return k.transfers
}

// eligible reports whether a packet of value v may enter queue q: room,
// or a beta-dominated minimum to preempt.
func (k *KKSFIFO) eligible(q *queue.Queue, v int64) bool {
	if !q.Full() {
		return true
	}
	min, _ := q.MinValue()
	return float64(v) > k.beta*float64(min.Value)
}
