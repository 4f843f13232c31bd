package core

import (
	"fmt"
	"math"
	"math/bits"

	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/switchsim"
)

// PG is the paper's Preemptive Greedy algorithm for the general-value CIOQ
// case (Section 2.2), (3+2√2)-competitive at β = 1+√2 for any speedup
// (Theorem 2).
//
//   - Arrival: accept p if Q_ij has room or its least valuable packet is
//     strictly worse than p (preempting it).
//   - Scheduling cycle: build the weighted eligibility graph with an edge
//     (i,j) of weight v(g_ij) whenever Q_ij is non-empty and either Q_j has
//     room or v(g_ij) > β·v(l_j); compute a greedy maximal matching by
//     scanning edges in decreasing weight; transfer the heaviest packet of
//     each matched input queue, preempting l_j when Q_j is full.
//   - Transmission: send the most valuable packet of each output queue.
//
// Unlike the 6-competitive predecessor (see KRMWM), PG's matching is
// maximal rather than maximum, and greedy. On switches of up to 64×64
// ports whose queued head values all lie in [1, switchsim.MaxIndexedValue],
// a cycle walks the engine's head-value index: O(d + r) word operations
// for d distinct head values and r pairs of a value and a still-unmatched
// input holding a head of that value, with no sort and no queue read but
// a full output's tail. Otherwise it enumerates all E non-empty queues
// and sorts them, O(E) with the counting sort.
type PG struct {
	// Beta is the preemption threshold β ≥ 1; DefaultBetaPG() if zero.
	Beta float64

	cfg       switchsim.Config
	beta      float64
	edges     []matching.Edge
	sched     matching.WeightedScheduler
	transfers []switchsim.Transfer
}

// Name implements switchsim.CIOQPolicy.
func (g *PG) Name() string {
	if g.Beta == 0 || g.Beta == DefaultBetaPG() {
		return "pg"
	}
	return fmt.Sprintf("pg(beta=%.3f)", g.Beta)
}

// Disciplines implements switchsim.CIOQPolicy: value-ordered queues give
// O(1) access to g_ij, l_ij and l_j.
func (g *PG) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue
}

// Reset implements switchsim.CIOQPolicy.
func (g *PG) Reset(cfg switchsim.Config) {
	g.cfg = cfg
	g.beta = g.Beta
	if g.beta == 0 {
		g.beta = DefaultBetaPG()
	}
	if g.beta < 1 {
		g.beta = 1
	}
	g.edges = g.edges[:0]
	g.transfers = g.transfers[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: PG's only per-cycle
// work is rebuilding the eligibility graph from live queue state; with
// every input queue empty the graph is empty — whatever the output
// queues hold — and no state is retained.
func (g *PG) IdleAdvance(int) {}

// Admit implements switchsim.CIOQPolicy: greedy preemptive admission.
func (g *PG) Admit(_ *switchsim.CIOQ, _ packet.Packet) switchsim.AdmitAction {
	// The queue's PushPreempt implements exactly the paper's rule
	// (accept if |Q_ij| < B or v(l_ij) < v(p)).
	return switchsim.AcceptPreempt
}

// Schedule implements switchsim.CIOQPolicy: greedy maximal weighted
// matching over the β-eligibility graph, read off the switch's head-value
// index when it is ready and built edge by edge otherwise.
func (g *PG) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	if sw.IQIndex.Ready() {
		return g.scheduleIndexed(sw)
	}
	return g.scheduleEdges(sw)
}

// scheduleEdges enumerates the candidate edges from the switch's
// non-empty-VOQ bitmasks and hands them to the greedy matcher. An output
// that is not full (OutFree bit set) is eligible without touching its
// queue; only full outputs pay the β-threshold value comparison.
func (g *PG) scheduleEdges(sw *switchsim.CIOQ) []switchsim.Transfer {
	g.edges = g.edges[:0]
	n, m := g.cfg.Inputs, g.cfg.Outputs
	for i := 0; i < n; i++ {
		row := sw.VOQ.Row(i)
		for w, word := range row {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				head, _ := sw.IQ[i][j].Head()
				if sw.OutFree.Test(j) || eligibleOutput(sw.OQ[j], head.Value, g.beta) {
					g.edges = append(g.edges, matching.Edge{U: i, V: j, W: head.Value})
				}
			}
		}
	}
	g.transfers = appendTransfers(g.transfers[:0], g.sched.GreedyMaximalWeighted(n, m, g.edges), true)
	return g.transfers
}

// scheduleIndexed is Schedule's greedy matching walked directly on the
// head-value index: head values in descending order; within a value, the
// unmatched inputs in ascending order, each taking its lowest unmatched
// output that is eligible at that value. That is the (weight desc, input
// asc, output asc) order of matching.WeightedScheduler, so the transfers
// are the same and come in the same order. A full output that rejects
// value v rejects every lower value too, so it is dropped for the rest of
// the walk, which ends once every input with a queued packet or every
// output is matched.
func (g *PG) scheduleIndexed(sw *switchsim.CIOQ) []switchsim.Transfer {
	x := &sw.IQIndex
	g.transfers = g.transfers[:0]
	in := x.Live()
	avail := ^uint64(0) >> uint(64-g.cfg.Outputs)
	free := sw.OutFree[0]
	for v := x.Top(); v > 0 && in != 0 && avail != 0; v = x.Below(v) {
		for rows := x.Rows(v) & in; rows != 0; rows &= rows - 1 {
			i := bits.TrailingZeros64(rows)
			for cand := x.Cols(v, i) & avail; cand != 0; cand &= cand - 1 {
				j := bits.TrailingZeros64(cand)
				if free&(1<<uint(j)) == 0 && !eligibleOutput(sw.OQ[j], v, g.beta) {
					avail &^= 1 << uint(j)
					continue
				}
				g.transfers = append(g.transfers, switchsim.Transfer{In: i, Out: j, PreemptIfFull: true})
				in &^= 1 << uint(i)
				avail &^= 1 << uint(j)
				break
			}
		}
	}
	return g.transfers
}

// eligibleOutput reports the paper's eligibility condition for moving a
// packet of value v into output queue q: the queue has room, or v exceeds
// β times the value of the queue's least valuable packet.
func eligibleOutput(q *queue.Queue, v int64, beta float64) bool {
	if !q.Full() {
		return true
	}
	tail, _ := q.Tail()
	return float64(v) > beta*float64(tail.Value)
}

// KRMWM is the maximum-weight-matching baseline for the general-value CIOQ
// case: PG's admission, eligibility and preemption rules, but each cycle
// computes a *maximum-weight* matching (Hungarian algorithm) instead of a
// greedy maximal one, in the spirit of Kesselman–Rosén's 6-competitive
// algorithm (whose analysis optimizes at β = 2).
type KRMWM struct {
	// Beta defaults to 2, the parameter of the 6-competitive analysis.
	Beta float64

	cfg       switchsim.Config
	beta      float64
	edges     []matching.Edge
	hung      matching.HungarianSolver
	transfers []switchsim.Transfer
}

// Name implements switchsim.CIOQPolicy.
func (k *KRMWM) Name() string { return "kr-maxweight" }

// Disciplines implements switchsim.CIOQPolicy.
func (k *KRMWM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue
}

// Reset implements switchsim.CIOQPolicy.
func (k *KRMWM) Reset(cfg switchsim.Config) {
	k.cfg = cfg
	k.beta = k.Beta
	if k.beta == 0 {
		k.beta = 2
	}
	k.edges = k.edges[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: like PG, KRMWM is
// memoryless across cycles.
func (k *KRMWM) IdleAdvance(int) {}

// Admit implements switchsim.CIOQPolicy.
func (k *KRMWM) Admit(_ *switchsim.CIOQ, _ packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreempt
}

// Schedule implements switchsim.CIOQPolicy via the Hungarian algorithm;
// edge weights come from the switch's head-value lane.
func (k *KRMWM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	k.edges = k.edges[:0]
	n, m := k.cfg.Inputs, k.cfg.Outputs
	for i := 0; i < n; i++ {
		row := sw.VOQ.Row(i)
		heads := sw.IQHead[i*m : (i+1)*m]
		for w, word := range row {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if v := heads[j]; sw.OutFree.Test(j) || eligibleOutput(sw.OQ[j], v, k.beta) {
					k.edges = append(k.edges, matching.Edge{U: i, V: j, W: v})
				}
			}
		}
	}
	k.transfers = appendTransfers(k.transfers[:0], k.hung.MaxWeightMatching(n, m, k.edges), true)
	return k.transfers
}

// betaOrDefault resolves a possibly-zero β parameter.
func betaOrDefault(beta, def float64) float64 {
	if beta == 0 {
		return def
	}
	return math.Max(beta, 1)
}
