package core

import (
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/switchsim"
)

// This file retains the pre-bitset, full-scan implementations of every
// scheduling policy as reference oracles. They rebuild the eligibility
// graph each cycle by querying all Inputs×Outputs queues directly —
// exactly the code that shipped before the occupancy index existed — so
// the metamorphic test below can assert that the bitset-driven policies
// produce bit-identical schedules (same Result metrics, including
// per-queue occupancy sums and preemption counters) on seeded workloads.

func refEdgesToTransfers(es []matching.Edge, preempt bool) []switchsim.Transfer {
	out := make([]switchsim.Transfer, len(es))
	for k, e := range es {
		out[k] = switchsim.Transfer{In: e.U, Out: e.V, PreemptIfFull: preempt}
	}
	return out
}

// refGM is the full-scan GM (all four edge orders).
type refGM struct {
	Order EdgeOrder
	cfg   switchsim.Config
	edges []matching.Edge
	sched matching.WeightedScheduler
	ticks int
}

func (g *refGM) Name() string { return "ref-gm" }
func (g *refGM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (g *refGM) Reset(cfg switchsim.Config) { g.cfg = cfg; g.edges = g.edges[:0]; g.ticks = 0 }
func (g *refGM) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (g *refGM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	g.edges = g.edges[:0]
	n, m := g.cfg.Inputs, g.cfg.Outputs
	appendEdge := func(i, j int) {
		if !sw.IQ[i][j].Empty() && !sw.OQ[j].Full() {
			g.edges = append(g.edges, matching.Edge{U: i, V: j})
		}
	}
	switch g.Order {
	case ColMajor:
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				appendEdge(i, j)
			}
		}
	case Rotating:
		oi, oj := g.ticks%n, g.ticks%m
		for di := 0; di < n; di++ {
			for dj := 0; dj < m; dj++ {
				appendEdge((oi+di)%n, (oj+dj)%m)
			}
		}
	case LongestFirst:
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !sw.IQ[i][j].Empty() && !sw.OQ[j].Full() {
					g.edges = append(g.edges, matching.Edge{U: i, V: j, W: int64(sw.IQ[i][j].Len())})
				}
			}
		}
		g.ticks++
		return refEdgesToTransfers(g.sched.GreedyMaximalWeighted(n, m, g.edges), false)
	default: // RowMajor
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				appendEdge(i, j)
			}
		}
	}
	g.ticks++
	return refEdgesToTransfers(matching.GreedyMaximal(n, m, g.edges), false)
}

// refKRMM is the full-scan Hopcroft–Karp baseline.
type refKRMM struct {
	cfg switchsim.Config
	adj [][]int
}

func (k *refKRMM) Name() string { return "ref-krmm" }
func (k *refKRMM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (k *refKRMM) Reset(cfg switchsim.Config) { k.cfg = cfg; k.adj = make([][]int, cfg.Inputs) }
func (k *refKRMM) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (k *refKRMM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	n, m := k.cfg.Inputs, k.cfg.Outputs
	for i := 0; i < n; i++ {
		k.adj[i] = k.adj[i][:0]
		for j := 0; j < m; j++ {
			if !sw.IQ[i][j].Empty() && !sw.OQ[j].Full() {
				k.adj[i] = append(k.adj[i], j)
			}
		}
	}
	matchU, _ := matching.HopcroftKarp(n, m, k.adj)
	var out []switchsim.Transfer
	for i, j := range matchU {
		if j >= 0 {
			out = append(out, switchsim.Transfer{In: i, Out: j})
		}
	}
	return out
}

// refPG is the full-scan Preemptive Greedy.
type refPG struct {
	Beta  float64
	cfg   switchsim.Config
	beta  float64
	edges []matching.Edge
	sched matching.WeightedScheduler
}

func (g *refPG) Name() string { return "ref-pg" }
func (g *refPG) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue
}
func (g *refPG) Reset(cfg switchsim.Config) {
	g.cfg = cfg
	g.beta = g.Beta
	if g.beta == 0 {
		g.beta = DefaultBetaPG()
	}
	if g.beta < 1 {
		g.beta = 1
	}
	g.edges = g.edges[:0]
}
func (g *refPG) Admit(_ *switchsim.CIOQ, _ packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreempt
}
func (g *refPG) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	g.edges = g.edges[:0]
	n, m := g.cfg.Inputs, g.cfg.Outputs
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			head, ok := sw.IQ[i][j].Head()
			if !ok {
				continue
			}
			if eligibleOutput(sw.OQ[j], head.Value, g.beta) {
				g.edges = append(g.edges, matching.Edge{U: i, V: j, W: head.Value})
			}
		}
	}
	return refEdgesToTransfers(g.sched.GreedyMaximalWeighted(n, m, g.edges), true)
}

// refKRMWM is the full-scan Hungarian baseline.
type refKRMWM struct {
	Beta  float64
	cfg   switchsim.Config
	beta  float64
	edges []matching.Edge
}

func (k *refKRMWM) Name() string { return "ref-krmwm" }
func (k *refKRMWM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue
}
func (k *refKRMWM) Reset(cfg switchsim.Config) {
	k.cfg = cfg
	k.beta = Threshold(k.Beta, 2)
	k.edges = k.edges[:0]
}
func (k *refKRMWM) Admit(_ *switchsim.CIOQ, _ packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreempt
}
func (k *refKRMWM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	k.edges = k.edges[:0]
	n, m := k.cfg.Inputs, k.cfg.Outputs
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			head, ok := sw.IQ[i][j].Head()
			if !ok {
				continue
			}
			if eligibleOutput(sw.OQ[j], head.Value, k.beta) {
				k.edges = append(k.edges, matching.Edge{U: i, V: j, W: head.Value})
			}
		}
	}
	var h matching.HungarianSolver // fresh per call: no scratch carried over
	return refEdgesToTransfers(h.MaxWeightMatching(n, m, k.edges), true)
}

// refRandomizedGM is the full-scan randomized GM; it must consume its RNG
// exactly like the bitset version (same edge enumeration order feeding
// the shuffle) for the comparison to be deterministic.
type refRandomizedGM struct {
	Seed  int64
	cfg   switchsim.Config
	rng   *rand.Rand
	edges []matching.Edge
}

func (g *refRandomizedGM) Name() string { return "ref-gm-random" }
func (g *refRandomizedGM) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (g *refRandomizedGM) Reset(cfg switchsim.Config) {
	g.cfg = cfg
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	g.rng = rand.New(rand.NewSource(seed))
	g.edges = g.edges[:0]
}
func (g *refRandomizedGM) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (g *refRandomizedGM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	g.edges = g.edges[:0]
	n, m := g.cfg.Inputs, g.cfg.Outputs
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if !sw.IQ[i][j].Empty() && !sw.OQ[j].Full() {
				g.edges = append(g.edges, matching.Edge{U: i, V: j})
			}
		}
	}
	g.rng.Shuffle(len(g.edges), func(a, b int) {
		g.edges[a], g.edges[b] = g.edges[b], g.edges[a]
	})
	return refEdgesToTransfers(matching.GreedyMaximal(n, m, g.edges), false)
}

// refARFIFO is the full-scan Azar–Richter FIFO baseline.
type refARFIFO struct {
	Beta  float64
	cfg   switchsim.Config
	beta  float64
	edges []matching.Edge
	sched matching.WeightedScheduler
}

func (a *refARFIFO) Name() string { return "ref-ar-fifo" }
func (a *refARFIFO) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (a *refARFIFO) Reset(cfg switchsim.Config) {
	a.cfg = cfg
	a.beta = Threshold(a.Beta, 2)
	a.edges = a.edges[:0]
}
func (a *refARFIFO) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	q := sw.IQ[p.In][p.Out]
	if !q.Full() {
		return switchsim.Accept
	}
	if min, ok := q.MinValue(); ok && float64(p.Value) > a.beta*float64(min.Value) {
		return switchsim.AcceptPreemptMin
	}
	return switchsim.Reject
}
func (a *refARFIFO) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	a.edges = a.edges[:0]
	n, m := a.cfg.Inputs, a.cfg.Outputs
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			head, ok := sw.IQ[i][j].Head()
			if !ok {
				continue
			}
			oq := sw.OQ[j]
			eligible := !oq.Full()
			if !eligible {
				if min, has := oq.MinValue(); has && float64(head.Value) > a.beta*float64(min.Value) {
					eligible = true
				}
			}
			if eligible {
				a.edges = append(a.edges, matching.Edge{U: i, V: j, W: head.Value})
			}
		}
	}
	ms := a.sched.GreedyMaximalWeighted(n, m, a.edges)
	out := make([]switchsim.Transfer, len(ms))
	for k, e := range ms {
		out[k] = switchsim.Transfer{In: e.U, Out: e.V, PreemptMinIfFull: true}
	}
	return out
}

// refNaiveFIFO is the full-scan first-fit baseline.
type refNaiveFIFO struct{ cfg switchsim.Config }

func (n *refNaiveFIFO) Name() string { return "ref-naive-fifo" }
func (n *refNaiveFIFO) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (n *refNaiveFIFO) Reset(cfg switchsim.Config) { n.cfg = cfg }
func (n *refNaiveFIFO) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (n *refNaiveFIFO) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	usedOut := make([]bool, n.cfg.Outputs)
	var out []switchsim.Transfer
	for i := 0; i < n.cfg.Inputs; i++ {
		for j := 0; j < n.cfg.Outputs; j++ {
			if usedOut[j] || sw.IQ[i][j].Empty() || sw.OQ[j].Full() {
				continue
			}
			usedOut[j] = true
			out = append(out, switchsim.Transfer{In: i, Out: j})
			break
		}
	}
	return out
}

// refRoundRobin is the pointer-walking iSLIP baseline.
type refRoundRobin struct {
	cfg    switchsim.Config
	grant  []int
	accept []int
}

func (r *refRoundRobin) Name() string { return "ref-roundrobin" }
func (r *refRoundRobin) Disciplines() (queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO
}
func (r *refRoundRobin) Reset(cfg switchsim.Config) {
	r.cfg = cfg
	r.grant = make([]int, cfg.Outputs)
	r.accept = make([]int, cfg.Inputs)
}
func (r *refRoundRobin) Admit(sw *switchsim.CIOQ, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (r *refRoundRobin) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	n, m := r.cfg.Inputs, r.cfg.Outputs
	grantOf := make([]int, m)
	for j := range grantOf {
		grantOf[j] = -1
	}
	for j := 0; j < m; j++ {
		if sw.OQ[j].Full() {
			continue
		}
		for di := 0; di < n; di++ {
			i := (r.grant[j] + di) % n
			if !sw.IQ[i][j].Empty() {
				grantOf[j] = i
				break
			}
		}
	}
	var out []switchsim.Transfer
	for i := 0; i < n; i++ {
		chosen := -1
		for dj := 0; dj < m; dj++ {
			j := (r.accept[i] + dj) % m
			if grantOf[j] == i {
				chosen = j
				break
			}
		}
		if chosen >= 0 {
			out = append(out, switchsim.Transfer{In: i, Out: chosen})
			r.accept[i] = (chosen + 1) % m
			r.grant[chosen] = (i + 1) % n
		}
	}
	return out
}

// refCGU is the full-scan Crossbar Greedy Unit.
type refCGU struct {
	RotatePick bool
	cfg        switchsim.Config
	ticks      int
}

func (c *refCGU) Name() string { return "ref-cgu" }
func (c *refCGU) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO, queue.FIFO
}
func (c *refCGU) Reset(cfg switchsim.Config) { c.cfg = cfg; c.ticks = 0 }
func (c *refCGU) Admit(sw *switchsim.Crossbar, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (c *refCGU) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := c.cfg.Inputs, c.cfg.Outputs
	start := 0
	if c.RotatePick {
		start = c.ticks
	}
	var out []switchsim.Transfer
	for i := 0; i < n; i++ {
		for dj := 0; dj < m; dj++ {
			j := (start + dj) % m
			if !sw.IQ[i][j].Empty() && !sw.XQ[i][j].Full() {
				out = append(out, switchsim.Transfer{In: i, Out: j})
				break
			}
		}
	}
	return out
}
func (c *refCGU) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := c.cfg.Inputs, c.cfg.Outputs
	start := 0
	if c.RotatePick {
		start = c.ticks
	}
	c.ticks++
	var out []switchsim.Transfer
	for j := 0; j < m; j++ {
		if sw.OQ[j].Full() {
			continue
		}
		for di := 0; di < n; di++ {
			i := (start + di) % n
			if !sw.XQ[i][j].Empty() {
				out = append(out, switchsim.Transfer{In: i, Out: j})
				break
			}
		}
	}
	return out
}

// refCPG is the full-scan Crossbar Preemptive Greedy.
type refCPG struct {
	Beta, Alpha float64
	cfg         switchsim.Config
	beta, alpha float64
}

func (c *refCPG) Name() string { return "ref-cpg" }
func (c *refCPG) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue, queue.ByValue
}
func (c *refCPG) Reset(cfg switchsim.Config) {
	c.cfg = cfg
	c.beta = Threshold(c.Beta, DefaultBetaCPG())
	c.alpha = Threshold(c.Alpha, DefaultAlphaCPG())
}
func (c *refCPG) Admit(_ *switchsim.Crossbar, _ packet.Packet) switchsim.AdmitAction {
	return switchsim.AcceptPreempt
}
func (c *refCPG) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := c.cfg.Inputs, c.cfg.Outputs
	var out []switchsim.Transfer
	for i := 0; i < n; i++ {
		bestJ := -1
		var best packet.Packet
		for j := 0; j < m; j++ {
			head, ok := sw.IQ[i][j].Head()
			if !ok {
				continue
			}
			if !eligibleOutput(sw.XQ[i][j], head.Value, c.beta) {
				continue
			}
			if bestJ < 0 || packet.Less(head, best) {
				bestJ, best = j, head
			}
		}
		if bestJ >= 0 {
			out = append(out, switchsim.Transfer{In: i, Out: bestJ, PreemptIfFull: true})
		}
	}
	return out
}
func (c *refCPG) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := c.cfg.Inputs, c.cfg.Outputs
	var out []switchsim.Transfer
	for j := 0; j < m; j++ {
		bestI := -1
		var best packet.Packet
		for i := 0; i < n; i++ {
			head, ok := sw.XQ[i][j].Head()
			if !ok {
				continue
			}
			if bestI < 0 || packet.Less(head, best) {
				bestI, best = i, head
			}
		}
		if bestI < 0 {
			continue
		}
		if eligibleOutput(sw.OQ[j], best.Value, c.alpha) {
			out = append(out, switchsim.Transfer{In: bestI, Out: j, PreemptIfFull: true})
		}
	}
	return out
}

// refKKSFIFO is the full-scan FIFO crossbar baseline.
type refKKSFIFO struct {
	Beta float64
	cfg  switchsim.Config
	beta float64
}

func (k *refKKSFIFO) Name() string { return "ref-kks-fifo" }
func (k *refKKSFIFO) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO, queue.FIFO
}
func (k *refKKSFIFO) Reset(cfg switchsim.Config) {
	k.cfg = cfg
	k.beta = Threshold(k.Beta, 2)
}
func (k *refKKSFIFO) eligible(q *queue.Queue, v int64) bool {
	if !q.Full() {
		return true
	}
	min, _ := q.MinValue()
	return float64(v) > k.beta*float64(min.Value)
}
func (k *refKKSFIFO) Admit(sw *switchsim.Crossbar, p packet.Packet) switchsim.AdmitAction {
	q := sw.IQ[p.In][p.Out]
	if !q.Full() {
		return switchsim.Accept
	}
	if min, ok := q.MinValue(); ok && float64(p.Value) > k.beta*float64(min.Value) {
		return switchsim.AcceptPreemptMin
	}
	return switchsim.Reject
}
func (k *refKKSFIFO) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := k.cfg.Inputs, k.cfg.Outputs
	var out []switchsim.Transfer
	for i := 0; i < n; i++ {
		bestJ := -1
		var best packet.Packet
		for j := 0; j < m; j++ {
			head, ok := sw.IQ[i][j].Head()
			if !ok {
				continue
			}
			if !k.eligible(sw.XQ[i][j], head.Value) {
				continue
			}
			if bestJ < 0 || packet.Less(head, best) {
				bestJ, best = j, head
			}
		}
		if bestJ >= 0 {
			out = append(out, switchsim.Transfer{In: i, Out: bestJ, PreemptMinIfFull: true})
		}
	}
	return out
}
func (k *refKKSFIFO) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	n, m := k.cfg.Inputs, k.cfg.Outputs
	var out []switchsim.Transfer
	for j := 0; j < m; j++ {
		bestI := -1
		var best packet.Packet
		for i := 0; i < n; i++ {
			head, ok := sw.XQ[i][j].Head()
			if !ok {
				continue
			}
			if bestI < 0 || packet.Less(head, best) {
				bestI, best = i, head
			}
		}
		if bestI < 0 {
			continue
		}
		if k.eligible(sw.OQ[j], best.Value) {
			out = append(out, switchsim.Transfer{In: bestI, Out: j, PreemptMinIfFull: true})
		}
	}
	return out
}

// refCrossbarNaive is the full-scan first-fit crossbar baseline.
type refCrossbarNaive struct{ cfg switchsim.Config }

func (c *refCrossbarNaive) Name() string { return "ref-crossbar-naive" }
func (c *refCrossbarNaive) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.FIFO, queue.FIFO, queue.FIFO
}
func (c *refCrossbarNaive) Reset(cfg switchsim.Config) { c.cfg = cfg }
func (c *refCrossbarNaive) Admit(sw *switchsim.Crossbar, p packet.Packet) switchsim.AdmitAction {
	if sw.IQ[p.In][p.Out].Full() {
		return switchsim.Reject
	}
	return switchsim.Accept
}
func (c *refCrossbarNaive) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	var out []switchsim.Transfer
	for i := 0; i < c.cfg.Inputs; i++ {
		for j := 0; j < c.cfg.Outputs; j++ {
			if !sw.IQ[i][j].Empty() && !sw.XQ[i][j].Full() {
				out = append(out, switchsim.Transfer{In: i, Out: j})
				break
			}
		}
	}
	return out
}
func (c *refCrossbarNaive) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	var out []switchsim.Transfer
	for j := 0; j < c.cfg.Outputs; j++ {
		if sw.OQ[j].Full() {
			continue
		}
		for i := 0; i < c.cfg.Inputs; i++ {
			if !sw.XQ[i][j].Empty() {
				out = append(out, switchsim.Transfer{In: i, Out: j})
				break
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// The metamorphic test proper.
// ---------------------------------------------------------------------------

type refConfig struct {
	name string
	cfg  switchsim.Config
}

func equivalenceConfigs() []refConfig {
	return []refConfig{
		{"square", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 60}},
		{"speedup2", switchsim.Config{Inputs: 5, Outputs: 5, InputBuf: 3, OutputBuf: 1,
			CrossBuf: 2, Speedup: 2, Validate: true, Slots: 60}},
		{"rect", switchsim.Config{Inputs: 3, Outputs: 6, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 60}},
		{"wide", switchsim.Config{Inputs: 66, Outputs: 66, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 25}},
	}
}

// boundaryCell is a reference-suite cell with its own workload.
type boundaryCell struct {
	refConfig
	gen          packet.Generator
	arrivalSlots int
}

// boundaryCells are the edges of the engines' head-value index, run with
// Validate on and few slots: a 64x64 switch, the widest geometry whose
// port masks fit one word, and a value mix straddling 2048, the largest
// head value the index holds, so a run moves between the indexed and the
// full-scan scheduling path and back.
func boundaryCells() []boundaryCell {
	return []boundaryCell{
		{refConfig{"64x64", switchsim.Config{Inputs: 64, Outputs: 64, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 16}},
			packet.Hotspot{Load: 1.5, HotFrac: 0.6, Values: packet.UniformValues{Hi: 40}}, 10},
		{refConfig{"above2048", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 60}},
			packet.Hotspot{Load: 1.5, HotFrac: 0.6, Values: packet.BimodalValues{LowHi: 40, HighLo: 2000, HighHi: 2100, PHigh: 0.08}}, 40},
	}
}

func (c boundaryCell) seq(seed int64) packet.Sequence {
	return c.gen.Generate(rand.New(rand.NewSource(seed)), c.cfg.Inputs, c.cfg.Outputs, c.arrivalSlots)
}

func equivalenceSeq(t *testing.T, cfg switchsim.Config, seed int64) packet.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen := packet.Hotspot{Load: 1.5, HotFrac: 0.6, Values: packet.UniformValues{Hi: 40}}
	return gen.Generate(rng, cfg.Inputs, cfg.Outputs, 40)
}

// TestCIOQPoliciesMatchFullScanReference asserts that every bitset-driven
// CIOQ policy produces exactly the same Result metrics as its retained
// full-scan reference on seeded workloads — admission, matching, and
// preemption decisions are bit-identical, not just benefit-equal.
func TestCIOQPoliciesMatchFullScanReference(t *testing.T) {
	pairs := []struct {
		name string
		fast func() switchsim.CIOQPolicy
		ref  func() switchsim.CIOQPolicy
	}{
		{"gm-rowmajor", func() switchsim.CIOQPolicy { return &GM{} }, func() switchsim.CIOQPolicy { return &refGM{} }},
		{"gm-colmajor", func() switchsim.CIOQPolicy { return &GM{Order: ColMajor} }, func() switchsim.CIOQPolicy { return &refGM{Order: ColMajor} }},
		{"gm-rotating", func() switchsim.CIOQPolicy { return &GM{Order: Rotating} }, func() switchsim.CIOQPolicy { return &refGM{Order: Rotating} }},
		{"gm-longestfirst", func() switchsim.CIOQPolicy { return &GM{Order: LongestFirst} }, func() switchsim.CIOQPolicy { return &refGM{Order: LongestFirst} }},
		{"krmm", func() switchsim.CIOQPolicy { return &KRMM{} }, func() switchsim.CIOQPolicy { return &refKRMM{} }},
		{"pg", func() switchsim.CIOQPolicy { return &PG{} }, func() switchsim.CIOQPolicy { return &refPG{} }},
		{"krmwm", func() switchsim.CIOQPolicy { return &KRMWM{} }, func() switchsim.CIOQPolicy { return &refKRMWM{} }},
		{"gm-random", func() switchsim.CIOQPolicy { return &RandomizedGM{Seed: 11} }, func() switchsim.CIOQPolicy { return &refRandomizedGM{Seed: 11} }},
		{"ar-fifo", func() switchsim.CIOQPolicy { return &ARFIFO{} }, func() switchsim.CIOQPolicy { return &refARFIFO{} }},
		{"naive-fifo", func() switchsim.CIOQPolicy { return &NaiveFIFO{} }, func() switchsim.CIOQPolicy { return &refNaiveFIFO{} }},
		{"roundrobin", func() switchsim.CIOQPolicy { return &RoundRobin{} }, func() switchsim.CIOQPolicy { return &refRoundRobin{} }},
	}
	for _, pc := range pairs {
		for _, rc := range equivalenceConfigs() {
			for seed := int64(1); seed <= 6; seed++ {
				seq := equivalenceSeq(t, rc.cfg, seed)
				fast := mustRunCIOQ(t, rc.cfg, pc.fast(), seq)
				ref := mustRunCIOQ(t, rc.cfg, pc.ref(), seq)
				if !reflect.DeepEqual(fast.M, ref.M) {
					t.Errorf("%s/%s seed %d: bitset policy diverged from full-scan reference:\nfast: %+v\nref:  %+v",
						pc.name, rc.name, seed, fast.M, ref.M)
				}
			}
		}
		for _, bc := range boundaryCells() {
			for seed := int64(1); seed <= 3; seed++ {
				seq := bc.seq(seed)
				fast := mustRunCIOQ(t, bc.cfg, pc.fast(), seq)
				ref := mustRunCIOQ(t, bc.cfg, pc.ref(), seq)
				if !reflect.DeepEqual(fast.M, ref.M) {
					t.Errorf("%s/%s seed %d: bitset policy diverged from full-scan reference:\nfast: %+v\nref:  %+v",
						pc.name, bc.name, seed, fast.M, ref.M)
				}
			}
		}
	}
}

// TestCrossbarPoliciesMatchFullScanReference is the crossbar-side twin.
func TestCrossbarPoliciesMatchFullScanReference(t *testing.T) {
	pairs := []struct {
		name string
		fast func() switchsim.CrossbarPolicy
		ref  func() switchsim.CrossbarPolicy
	}{
		{"cgu", func() switchsim.CrossbarPolicy { return &CGU{} }, func() switchsim.CrossbarPolicy { return &refCGU{} }},
		{"cgu-rotating", func() switchsim.CrossbarPolicy { return &CGU{RotatePick: true} }, func() switchsim.CrossbarPolicy { return &refCGU{RotatePick: true} }},
		{"cpg", func() switchsim.CrossbarPolicy { return &CPG{} }, func() switchsim.CrossbarPolicy { return &refCPG{} }},
		{"cpg-equal", func() switchsim.CrossbarPolicy { return CPGEqualParams() }, func() switchsim.CrossbarPolicy { b, _ := MinimizeCPGEqualParams(); return &refCPG{Beta: b, Alpha: b} }},
		{"kks-fifo", func() switchsim.CrossbarPolicy { return &KKSFIFO{} }, func() switchsim.CrossbarPolicy { return &refKKSFIFO{} }},
		{"crossbar-naive", func() switchsim.CrossbarPolicy { return &CrossbarNaive{} }, func() switchsim.CrossbarPolicy { return &refCrossbarNaive{} }},
	}
	for _, pc := range pairs {
		for _, rc := range equivalenceConfigs() {
			for seed := int64(1); seed <= 6; seed++ {
				seq := equivalenceSeq(t, rc.cfg, seed)
				fast := mustRunXbar(t, rc.cfg, pc.fast(), seq)
				ref := mustRunXbar(t, rc.cfg, pc.ref(), seq)
				if !reflect.DeepEqual(fast.M, ref.M) {
					t.Errorf("%s/%s seed %d: bitset policy diverged from full-scan reference:\nfast: %+v\nref:  %+v",
						pc.name, rc.name, seed, fast.M, ref.M)
				}
			}
		}
		for _, bc := range boundaryCells() {
			for seed := int64(1); seed <= 3; seed++ {
				seq := bc.seq(seed)
				fast := mustRunXbar(t, bc.cfg, pc.fast(), seq)
				ref := mustRunXbar(t, bc.cfg, pc.ref(), seq)
				if !reflect.DeepEqual(fast.M, ref.M) {
					t.Errorf("%s/%s seed %d: bitset policy diverged from full-scan reference:\nfast: %+v\nref:  %+v",
						pc.name, bc.name, seed, fast.M, ref.M)
				}
			}
		}
	}
}
