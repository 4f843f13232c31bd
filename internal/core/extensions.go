package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/rng"
	"qswitch/internal/switchsim"
)

// RandomizedGM is GM with a freshly shuffled edge scan order in every
// scheduling cycle. The paper notes (Section 4) that no randomized
// algorithm is known for the CIOQ model; this policy probes the question
// empirically: the adaptive adversary that forces (2 - 1/m) against any
// FIXED order can no longer predict which queue is served, and experiment
// E14 shows the measured adversarial ratio drop accordingly. Its proven
// guarantee is still only GM's 3 (randomization can't hurt: every
// realized order is a greedy maximal matching).
type RandomizedGM struct {
	// Seed makes runs reproducible; 1 if zero.
	Seed int64

	cfg       switchsim.Config
	rng       *rand.Rand
	edges     []matching.Edge
	mt        matching.Matcher
	transfers []switchsim.Transfer
}

// Name implements switchsim.CIOQPolicy.
func (g *RandomizedGM) Name() string { return "gm-random" }

// Disciplines implements switchsim.CIOQPolicy.
func (g *RandomizedGM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}

// Reset implements switchsim.CIOQPolicy.
func (g *RandomizedGM) Reset(cfg switchsim.Config) {
	g.cfg = cfg
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	g.rng = rng.New(seed)
	g.edges = g.edges[:0]
	g.transfers = g.transfers[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: with no occupied input
// queue the edge list is empty and rand.Shuffle over it draws nothing
// from the RNG, so idle and quiescent cycles leave the random stream —
// the policy's only cross-cycle state — untouched.
func (g *RandomizedGM) IdleAdvance(int) {}

// Admit implements switchsim.CIOQPolicy.
func (g *RandomizedGM) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}

// Schedule implements switchsim.CIOQPolicy: greedy maximal matching over
// a uniformly shuffled edge order. The eligible edge list is gathered
// from the bitset index in row-major order (matching the pre-index
// implementation bit for bit, so the shuffle consumes the RNG
// identically).
func (g *RandomizedGM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	g.edges = g.edges[:0]
	n, m := g.cfg.Inputs, g.cfg.Outputs
	for i := 0; i < n; i++ {
		for w, word := range sw.VOQ.Row(i) {
			word &= sw.OutFree[w]
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				g.edges = append(g.edges, matching.Edge{U: i, V: j})
			}
		}
	}
	g.rng.Shuffle(len(g.edges), func(a, b int) {
		g.edges[a], g.edges[b] = g.edges[b], g.edges[a]
	})
	g.transfers = appendTransfers(g.transfers[:0], g.mt.GreedyMaximal(n, m, g.edges), false)
	return g.transfers
}

// ARFIFO is a FIFO-queue CIOQ scheduler in the spirit of Azar–Richter's
// algorithm for CIOQ switches with FIFO queues (the 8-competitive line of
// related work the paper contrasts with, later sharpened to 7.47 by
// Kesselman et al.). Queues release packets strictly in arrival order;
// preemption drops the least-valuable buffered packet when a sufficiently
// more valuable one (factor Beta) arrives or transfers.
//
// It is NOT one of the paper's algorithms — it exists as the related-work
// baseline for the FIFO-vs-non-FIFO comparison in experiment E15.
type ARFIFO struct {
	// Beta is the preemption factor; 2 if zero (the classical choice).
	Beta float64

	cfg       switchsim.Config
	beta      float64
	edges     []matching.Edge
	sched     matching.WeightedScheduler
	transfers []switchsim.Transfer
}

// Name implements switchsim.CIOQPolicy.
func (a *ARFIFO) Name() string { return "ar-fifo" }

// Disciplines implements switchsim.CIOQPolicy: strict FIFO order.
func (a *ARFIFO) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}

// Reset implements switchsim.CIOQPolicy.
func (a *ARFIFO) Reset(cfg switchsim.Config) {
	a.cfg = cfg
	a.beta = betaOrDefault(a.Beta, 2)
	a.edges = a.edges[:0]
	a.transfers = a.transfers[:0]
}

// IdleAdvance implements switchsim.IdleAdvancer: ARFIFO is memoryless
// across cycles.
func (a *ARFIFO) IdleAdvance(int) {}

// Admit implements switchsim.CIOQPolicy: accept when there is room, or
// when the arrival beats the queue's minimum by the factor Beta.
func (a *ARFIFO) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	q := sw.IQ[p.In][p.Out]
	if !q.Full() {
		return switchsim.Accept
	}
	if min, ok := q.MinValue(); ok && float64(p.Value) > a.beta*float64(min.Value) {
		return switchsim.AcceptPreemptMin
	}
	return switchsim.Reject
}

// Schedule implements switchsim.CIOQPolicy: greedy maximal matching by
// the value of each queue's FIFO head (the packet that would actually be
// transferred), with Beta-gated preemption at the output queues.
func (a *ARFIFO) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	a.edges = a.edges[:0]
	n, m := a.cfg.Inputs, a.cfg.Outputs
	for i := 0; i < n; i++ {
		for w, word := range sw.VOQ.Row(i) {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				head, _ := sw.IQ[i][j].Head()
				eligible := sw.OutFree.Test(j)
				if !eligible {
					if min, has := sw.OQ[j].MinValue(); has && float64(head.Value) > a.beta*float64(min.Value) {
						eligible = true
					}
				}
				if eligible {
					a.edges = append(a.edges, matching.Edge{U: i, V: j, W: head.Value})
				}
			}
		}
	}
	a.transfers = a.transfers[:0]
	for _, e := range a.sched.GreedyMaximalWeighted(n, m, a.edges) {
		a.transfers = append(a.transfers, switchsim.Transfer{In: e.U, Out: e.V, PreemptMinIfFull: true})
	}
	return a.transfers
}

// Describe returns a short human-readable description of any policy the
// registry knows, used by CLIs.
func Describe(name string) string {
	switch name {
	case "gm":
		return "Greedy Matching (paper; unit values, 3-competitive, greedy maximal matching)"
	case "pg":
		return "Preemptive Greedy (paper; weighted, 3+2sqrt(2)-competitive at beta=1+sqrt(2))"
	case "cgu":
		return "Crossbar Greedy Unit (paper; unit values, 3-competitive)"
	case "cpg":
		return "Crossbar Preemptive Greedy (paper; weighted, ~14.83-competitive)"
	case "kr-maxmatch":
		return "maximum-matching baseline (Hopcroft-Karp per cycle; prior work)"
	case "kr-maxweight":
		return "maximum-weight-matching baseline (Hungarian per cycle; prior work)"
	case "gm-random":
		return "GM with a random scan order per cycle (open-problem probe)"
	case "ar-fifo":
		return "FIFO-queue baseline in the Azar-Richter line of related work"
	case "naive-fifo":
		return "non-preemptive value-blind first-fit baseline"
	case "roundrobin":
		return "iSLIP-style round-robin matching (practical baseline)"
	case "crossbar-naive":
		return "non-preemptive first-fit crossbar baseline"
	case "kks-fifo":
		return "FIFO-queue crossbar baseline in the Kesselman-Kogan-Segal line"
	default:
		return fmt.Sprintf("policy %q", name)
	}
}
