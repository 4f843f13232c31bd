package main

import (
	"fmt"
	"sort"
	"time"

	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// env is what a workload's set-up receives. The program under test only
// ever sees inputs generated from seed.
type env struct {
	seed  int64
	smoke bool     // every cell ÷ ~50: the tier-1 test and the off-home layer probes
	dir   string   // scratch directory for trace files and checkpoint logs
	self  []string // command that runs this binary as a shard worker
}

// pick returns full or smoke depending on the scale.
func (e *env) pick(full, smoke int) int {
	if e.smoke {
		return smoke
	}
	return full
}

// workload is one fixed set of inputs the suite runs. setup builds the
// inputs (everything a pass must not pay for), pass runs every cell once —
// decorated when the pass carries a tracer, bare otherwise — and layers
// turns the spans and probe counters of the traced passes into the
// workload's per-layer metrics.
type workload interface {
	setup(e *env) error
	pass(p *pass)
	layers(lv *layerView) map[string]float64
	close() error
}

// workloads is the suite, in run order: each workload's name, why it is
// in the suite in one line (the layer that dominates it and the layer that
// is idle in it) and its constructor. The names are normative —
// BENCHMARK.json, the goldens and every recorded result are keyed by them.
var workloads = []struct {
	name, why string
	mk        func() workload
}{
	{"paper_tables", "E1-E4 at full settings on the scalar backend: the exact DP judges do ~97%, engines idle, so an engine change must read flat here",
		func() workload { return &paperTables{} }},
	{"dense_switch", "64-port switch at load 0.95, every slot simulated: admit/transmit, the four policies, matching and queues do all the work; no judge, no jump",
		func() workload { return &denseSwitch{} }},
	{"sparse_stream", "same engines, almost every slot jumped: stream producers, cursor, idle/quiescent jumps and trace decode dominate; the policy is rarely called",
		func() workload { return &sparseStream{} }},
	{"fleet_montecarlo", "batched columnar fleet plus the epoch upper-bound judge, and one sequential-stopping cell: is judged fleet estimation judge-bound?",
		func() workload { return &fleetMonteCarlo{} }},
	{"sharded_service", "the paper_tables compute through a coordinator, two worker processes and an fsync'd checkpoint, then resumed: the difference is the service tier",
		func() workload { return &shardedService{} }},
	{"adversary_hunt", "restart hill-climbs with a tiny exact solve per candidate plus the adaptive adversary: the search loop and the only user of the steppers",
		func() workload { return &adversaryHunt{} }},
}

func newWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.mk(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cellResult is what one cell of a pass produced: the simulated statistics
// the golden pins, and the operation and switch-slot counts the end-to-end
// metrics are built from.
type cellResult struct {
	Name  string
	Round int    // the pass's round when the cell's inputs depend on it (cellOfRound), else 0
	Stats string // canonical text of the simulated statistics
	Ops   int64  // operations attempted (seed outcomes, runs, restarts)
	Slots int64  // switch-slots simulated, counted from the inputs handed in
	WallS float64
	Err   string
}

// pass collects one pass's cells and notes. kind is "bare" (what the
// end-to-end metrics are measured on), "traced" (decorated; tr is set),
// "probed" (bare, with the obs probes installed) or one of the workload's
// own kinds.
type pass struct {
	kind string
	// round counts the passes of this kind that came before. A warm-up pass
	// is round 0, and so is the first timed pass of each kind. Workloads run
	// the same inputs in every round, except where one pass cannot hold
	// enough work for its cost to be steady from seed to seed: such a cell
	// takes the next slice of its inputs each round (cellOfRound).
	round int
	tr    *tracer
	root  *span
	cells []cellResult
	notes map[string]float64
}

// note records a measurement the workload took inside the pass.
func (p *pass) note(key string, v float64) { p.notes[key] = v }

// cell runs fn as the cell called name under its own span. An error fails
// every operation of the cell.
func (p *pass) cell(name string, fn func(sp *span) (stats string, ops, slots int64, err error)) {
	p.cellOfRound(0, name, fn)
}

// cellOfRound is cell for a cell whose inputs are the round's own: its
// statistics are held to those of the same round, not to the warm-up pass's.
func (p *pass) cellOfRound(round int, name string, fn func(sp *span) (stats string, ops, slots int64, err error)) {
	sp := p.tr.begin(p.root, "cell:"+name)
	t0 := time.Now()
	stats, ops, slots, err := fn(sp)
	sp.end(slots)
	// The slot count is part of the golden text: it pins the inputs the
	// harness handed in (and, for the hunts, every candidate tried).
	c := cellResult{Name: name, Round: round, Stats: fmt.Sprintf("%s sim_slots=%d", stats, slots), Ops: max(ops, 1), Slots: slots, WallS: time.Since(t0).Seconds()}
	if err != nil {
		c.Err = err.Error()
	}
	p.cells = append(p.cells, c)
}

// key names the statistics the cell must reproduce: the cell, and the round
// when its inputs depend on it.
func (c *cellResult) key() string {
	if c.Round == 0 {
		return c.Name
	}
	return fmt.Sprintf("%s#%d", c.Name, c.Round)
}

// simStats is the golden text of one simulation run.
func simStats(r *switchsim.Result) string {
	m := &r.M
	s := fmt.Sprintf("slots=%d benefit=%d sent=%d accepted=%d rejected=%d transferred=%d",
		r.Slots, m.Benefit, m.Sent, m.Accepted, m.Rejected, m.Transferred+m.TransferredCross)
	if r.Cfg.RecordLatency {
		s += fmt.Sprintf(" latsum=%d latmax=%d", m.LatencySum, m.LatencyMax)
	}
	return s
}

// estStats is the golden text of one ratio estimate: the float fields are
// printed as their exact bit patterns, so a change in the last ulp shows.
func estStats(e ratio.Estimate) string {
	return fmt.Sprintf("mean=%x max=%x runs=%d skipped=%d", e.Mean, e.Max, e.Runs, e.Skipped)
}

// sim hands one simulation run its decorators: on a traced pass each
// wraps its argument around a timer that simulate flushes under the run's
// span; on any other pass each returns its argument untouched.
type sim struct {
	tr     *tracer
	names  []string
	timers []*timer
}

func (s *sim) timer(name string, stride int64) *timer {
	m := &timer{stride: stride}
	s.names, s.timers = append(s.names, name), append(s.timers, m)
	return m
}

func (s *sim) cioq(pol idleCIOQPolicy) switchsim.CIOQPolicy {
	if s.tr == nil {
		return pol
	}
	return timedCIOQ{pol, s.timer("core.schedule", sampleStride)}
}

func (s *sim) crossbar(pol idleCrossbarPolicy) switchsim.CrossbarPolicy {
	if s.tr == nil {
		return pol
	}
	return timedCrossbar{pol, s.timer("core.schedule", sampleStride)}
}

// stream's busy time lands in a span called name, timed every stride-th
// call.
func (s *sim) stream(src packet.ArrivalStream, name string, stride int64) packet.ArrivalStream {
	if s.tr == nil {
		return src
	}
	return &timedStream{src, s.timer(name, stride)}
}

// simulate is the cell body of one simulation run: one operation, cfg.Slots
// switch-slots, the run's statistics as the golden text.
func (p *pass) simulate(sp *span, cfg switchsim.Config, run func(*sim) (*switchsim.Result, error)) (string, int64, int64, error) {
	s := &sim{tr: p.tr}
	rs := p.tr.begin(sp, "switchsim.run")
	res, err := run(s)
	for i, m := range s.timers {
		p.tr.flush(rs, s.names[i], m)
	}
	rs.end(int64(cfg.Slots))
	if err != nil {
		return "", 1, int64(cfg.Slots), err
	}
	return simStats(res), 1, int64(cfg.Slots), nil
}

// layerView is what a workload derives its per-layer metrics from: the
// spans of its traced passes, the probe counters of its probed passes, and
// what the runner and the workload measured around each pass.
type layerView struct {
	ix       *spanIndex
	m        *measured
	passes   int64              // traced passes in ix
	counters map[string]float64 // obs registry totals over the probed passes
	probed   int64              // probed passes behind counters
}

// passNS is the summed wall-clock of the traced passes.
func (lv *layerView) passNS() float64 { return float64(lv.ix.sum("pass", "").ns) }

// frac is a layer's busy time as a share of the traced pass wall-clock.
func (lv *layerView) frac(name, anc string) float64 {
	if lv.passNS() == 0 {
		return 0
	}
	return float64(lv.ix.sum(name, anc).ns) / lv.passNS()
}

// med is the median over the passes of one kind of wall_s, cpu_s, gcs,
// alloc_mb or a note the workload took; 0 when no pass of that kind has it.
func (lv *layerView) med(kind, key string) float64 {
	return median(lv.m.samples(kind, func(p *passRecord) (float64, bool) {
		switch key {
		case "wall_s":
			return p.wallS, true
		case "cpu_s":
			return p.cpuS, true
		case "gcs":
			return p.gcs, true
		case "alloc_mb":
			return p.allocMB, true
		}
		v, ok := p.notes[key]
		return v, ok
	}))
}

// overhead is how much longer the median pass of one kind took than the
// median bare pass, as a share of the latter.
func (lv *layerView) overhead(kind string) float64 {
	bare, other := lv.med("bare", "wall_s"), lv.med(kind, "wall_s")
	if bare == 0 || other == 0 {
		return 0
	}
	return other/bare - 1
}

// counter is a probe counter's mean per probed pass.
func (lv *layerView) counter(name string) float64 {
	if lv.probed == 0 {
		return 0
	}
	return lv.counters[name] / float64(lv.probed)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
