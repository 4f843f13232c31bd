package core

import (
	"fmt"
	"math/bits"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/switchsim"
)

// CPG is the Crossbar Preemptive Greedy algorithm for the general-value
// buffered crossbar case (Section 3.2), ≈14.83-competitive for any speedup
// at the paper's parameters β* = (ρ²+ρ+4)/(3ρ), ρ = (19+3√33)^⅓ and
// α* = 2/(β*−1)² (Theorem 4).
//
//   - Arrival and transmission are as in PG.
//   - Input subphase: per input port i, among queues Q_ij that are
//     non-empty and whose crosspoint queue has room or satisfies
//     v(g_ij) > β·v(lc_ij), pick the one with the most valuable head and
//     transfer it to C_ij (preempting lc_ij when full).
//   - Output subphase: per output port j, pick the crosspoint queue with
//     the most valuable head; transfer it to Q_j if Q_j has room or
//     v(gc_ij) > α·v(l_j) (preempting l_j when full).
//
// Setting β = α recovers the algorithm of Kesselman, Kogan and Segal,
// whose best ratio is ≈16.24 (see CPGEqualParams); the paper's asymmetric
// choice is what brings the ratio down to ≈14.83.
type CPG struct {
	// Beta is the crosspoint preemption threshold; DefaultBetaCPG() if 0.
	Beta float64
	// Alpha is the output preemption threshold; DefaultAlphaCPG() if 0.
	Alpha float64

	cfg       switchsim.Config
	beta      float64
	alpha     float64
	transfers []switchsim.Transfer
	// Output-subphase picks on an indexed switch: output j takes input
	// pick[j]'s crosspoint for every j in picked.
	picked uint64
	pick   [64]uint8
}

// CPGEqualParams returns the β=α parameterization of CPG — the algorithm
// of Kesselman et al., originally proven 16.24-competitive — with β tuned
// to the best value the paper's sharper analysis allows (bound ≈15.59,
// still worse than the asymmetric optimum ≈14.83).
func CPGEqualParams() *CPG {
	b, _ := MinimizeCPGEqualParams()
	return &CPG{Beta: b, Alpha: b}
}

// Name implements switchsim.CrossbarPolicy.
func (c *CPG) Name() string {
	switch {
	case c.Beta == 0 && c.Alpha == 0:
		return "cpg"
	case c.Beta == c.Alpha:
		return fmt.Sprintf("cpg(beta=alpha=%.3f)", c.Beta)
	default:
		return fmt.Sprintf("cpg(beta=%.3f,alpha=%.3f)", c.Beta, c.Alpha)
	}
}

// Disciplines implements switchsim.CrossbarPolicy.
func (c *CPG) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue, queue.ByValue
}

// Reset implements switchsim.CrossbarPolicy.
func (c *CPG) Reset(cfg switchsim.Config) {
	c.cfg = cfg
	c.beta = betaOrDefault(c.Beta, DefaultBetaCPG())
	c.alpha = betaOrDefault(c.Alpha, DefaultAlphaCPG())
	c.transfers = c.transfers[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: both subphases derive
// their picks purely from live queue state, so idle cycles are no-ops.
func (c *CPG) IdleAdvance(int) {}

// Admit implements switchsim.CrossbarPolicy: greedy preemptive admission.
func (c *CPG) Admit(_ *switchsim.Crossbar, _ packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreempt
}

// InputSubphase implements switchsim.CrossbarPolicy. Candidates are
// enumerated from the non-empty-VOQ bitmask and valued from the switch's
// head-value lane. A head worth less than the best so far is skipped
// before its eligibility is tested, crosspoints with room (XFree bit set)
// skip the β-threshold comparison, and head packet IDs are read only to
// break a tie in value.
func (c *CPG) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := c.cfg.Inputs, c.cfg.Outputs
	c.transfers = c.transfers[:0]
	for i := 0; i < n; i++ {
		heads := sw.IQHead[i*m : (i+1)*m]
		xfree := sw.XFree.Row(i)
		bestJ := -1
		var bestV int64
		for w, word := range sw.VOQ.Row(i) {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				v := heads[j]
				if v < bestV || !xfree.Test(j) && !eligibleOutput(sw.XQ[i][j], v, c.beta) {
					continue
				}
				if v > bestV || headID(sw.IQ[i][j]) < headID(sw.IQ[i][bestJ]) {
					bestJ, bestV = j, v
				}
			}
		}
		if bestJ >= 0 {
			c.transfers = append(c.transfers, switchsim.Transfer{In: i, Out: bestJ, PreemptIfFull: true})
		}
	}
	return c.transfers
}

// OutputSubphase implements switchsim.CrossbarPolicy: each output picks
// its crosspoint with the most valuable head (ties to the lower packet
// ID), then transfers it if the output queue has room or the head beats
// α times the output's least valuable packet. The picks come from the
// switch's per-output value buckets when its crosspoint index is ready,
// and from a scan of the output's busy crosspoints in the head-value lane
// otherwise.
func (c *CPG) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	if sw.XIndex.Ready() {
		return c.outputIndexed(sw)
	}
	return c.outputScan(sw)
}

// outputIndexed is OutputSubphase on the crosspoint index.
func (c *CPG) outputIndexed(sw *switchsim.Crossbar) []switchsim.Transfer {
	c.transfers = c.transfers[:0]
	c.pickIndexed(sw)
	for w := c.picked; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		c.emitOutput(sw, int(c.pick[j]), j)
	}
	return c.transfers
}

// outputScan is OutputSubphase on the head-value lane alone.
func (c *CPG) outputScan(sw *switchsim.Crossbar) []switchsim.Transfer {
	c.transfers = c.transfers[:0]
	n := c.cfg.Inputs
	for j := 0; j < c.cfg.Outputs; j++ {
		heads := sw.XHead[j*n : (j+1)*n]
		bestI := -1
		var bestV int64
		for w, word := range sw.XBusyByOut.Row(j) {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				v := heads[i]
				if v > bestV || v == bestV && headID(sw.XQ[i][j]) < headID(sw.XQ[bestI][j]) {
					bestI, bestV = i, v
				}
			}
		}
		if bestI >= 0 {
			c.emitOutput(sw, bestI, j)
		}
	}
	return c.transfers
}

// pickIndexed walks the crosspoint index's head values in descending order
// and gives each output with a busy crosspoint the first value at which it
// appears: c.picked is the set of such outputs, c.pick[j] the input whose
// crosspoint output j takes.
func (c *CPG) pickIndexed(sw *switchsim.Crossbar) {
	x := &sw.XIndex
	c.picked = x.Live()
	pending := c.picked
	for v := x.Top(); v > 0 && pending != 0; v = x.Below(v) {
		for outs := x.Rows(v) & pending; outs != 0; outs &= outs - 1 {
			j := bits.TrailingZeros64(outs)
			cands := x.Cols(v, j)
			i := bits.TrailingZeros64(cands)
			for rest := cands & (cands - 1); rest != 0; rest &= rest - 1 {
				if k := bits.TrailingZeros64(rest); headID(sw.XQ[k][j]) < headID(sw.XQ[i][j]) {
					i = k
				}
			}
			c.pick[j] = uint8(i)
			pending &^= 1 << uint(j)
		}
	}
}

// emitOutput appends the transfer C_ij -> Q_j when Q_j has room or C_ij's
// head beats α·v(l_j). The choice of crosspoint queue ignores the output
// queue's state; the transfer condition is evaluated afterwards, per the
// paper's two-step formulation.
func (c *CPG) emitOutput(sw *switchsim.Crossbar, i, j int) {
	if sw.OutFree.Test(j) || eligibleOutput(sw.OQ[j], sw.XHead[j*c.cfg.Inputs+i], c.alpha) {
		c.transfers = append(c.transfers, switchsim.Transfer{In: i, Out: j, PreemptIfFull: true})
	}
}

// headID returns the ID of a non-empty queue's head packet.
func headID(q *queue.Queue) int64 {
	h, _ := q.Head()
	return h.ID
}
