package main

import (
	"context"
	"fmt"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// fleetMonteCarlo uses ratio and offline differently from paperTables: the
// batched columnar fleet and the O(K log K) epoch upper-bound judge in
// place of the scalar engine and the exact DP. It puts numbers on two open
// questions — is judged fleet estimation judge-bound, and is KRMWM worth a
// kernel — and its sequential cell makes sample efficiency visible as
// sim_slots. One worker: EvalChunk already overlaps stepping and judging on
// a second goroutine, which is this box's two cores.
type fleetMonteCarlo struct {
	seed  int64
	cells []fleetCell
	seq   fleetCell // the gm16 shape, run to a CI target by RunSequential
	seqTo stats.Target
}

// fleetCell is one fixed-N RunFleet estimation.
type fleetCell struct {
	name     string
	cfg      switchsim.Config
	alg      ratio.FleetAlgFactory
	judge    ratio.JudgeFactory
	gen      packet.Generator
	seeds    int
	batch    int
	seedBase int64
}

// seqBudget is seq_gm16's seed budget, seqChunk its stopping granularity
// and seqWidth the CI half-width it runs to. The per-seed ratio of this
// shape has a standard deviation of 0.0102 on every seed tried, so the run
// stops near 700 seeds, between a quarter and three quarters of the budget.
const (
	seqBudget = 2048
	seqChunk  = 32
	seqWidth  = 7.6e-4
)

func (w *fleetMonteCarlo) setup(e *env) error {
	w.seed = e.seed
	cioq, xbar := ratio.CIOQFleetAlg, ratio.CrossbarFleetAlg
	unit16 := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 64}
	wide := func(n int) switchsim.Config {
		return switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 2, Slots: 16}
	}
	unitGen := packet.Bernoulli{Load: 1.2}
	valueGen := packet.Bernoulli{Load: 1.5, Values: packet.UniformValues{Hi: 100}}
	w.cells = []fleetCell{
		{name: "gm16", cfg: unit16, alg: cioq(func() switchsim.CIOQPolicy { return &core.GM{} }),
			judge: ratio.UpperBoundCIOQ, gen: unitGen, seeds: e.pick(768, 32), batch: 256},
		{name: "cgu16", cfg: unit16, alg: xbar(func() switchsim.CrossbarPolicy { return &core.CGU{} }),
			judge: ratio.UpperBoundCrossbar, gen: unitGen, seeds: e.pick(768, 32), batch: 256},
		{name: "pg64", cfg: wide(64), alg: cioq(func() switchsim.CIOQPolicy { return &core.PG{} }),
			judge: ratio.UpperBoundCIOQ, gen: valueGen, seeds: e.pick(384, 16), batch: 64},
		{name: "cpg64", cfg: wide(64), alg: xbar(func() switchsim.CrossbarPolicy { return &core.CPG{} }),
			judge: ratio.UpperBoundCrossbar, gen: valueGen, seeds: e.pick(384, 16), batch: 64},
		{name: "pg256", cfg: wide(256), alg: cioq(func() switchsim.CIOQPolicy { return &core.PG{} }),
			judge: ratio.UpperBoundCIOQ, gen: valueGen, seeds: e.pick(48, 2), batch: 16},
		{name: "krmwm64", cfg: wide(64), alg: cioq(func() switchsim.CIOQPolicy { return &core.KRMWM{} }),
			judge: ratio.UpperBoundCIOQ, gen: valueGen, seeds: e.pick(12, 2), batch: 16},
	}
	for i := range w.cells {
		w.cells[i].seedBase = e.seed + int64(1000*i)
	}
	w.seq = w.cells[0]
	w.seq.name, w.seq.seeds, w.seq.seedBase = "seq_gm16", e.pick(seqBudget, 128), e.seed+9000
	w.seqTo = stats.Target{AbsWidth: seqWidth}
	return nil
}

// decorate wraps the cell's generator, fleet and judge on a traced pass.
func (c fleetCell) decorate(tr *tracer, mg, mf, mj *timer) (packet.Generator, ratio.FleetAlgFactory, ratio.JudgeFactory) {
	if tr == nil {
		return c.gen, c.alg, c.judge
	}
	return timedGen{c.gen, mg}, timedFleet(c.alg, mf), timedJudges(c.judge, mj)
}

func flushFleet(tr *tracer, sp *span, mg, mf, mj *timer) {
	tr.flush(sp, "packet.generate", mg)
	tr.flush(sp, "fleet.step", mf)
	tr.flush(sp, "offline.judge", mj)
}

func (w *fleetMonteCarlo) pass(p *pass) {
	ctx := context.Background()
	for _, c := range w.cells {
		p.cell(c.name, func(sp *span) (string, int64, int64, error) {
			var mg, mf, mj timer
			gen, alg, judge := c.decorate(p.tr, &mg, &mf, &mj)
			est, err := ratio.RunFleet(ctx, c.cfg, alg, judge, gen, c.seedBase, c.seeds, 1, c.batch)
			flushFleet(p.tr, sp, &mg, &mf, &mj)
			return estStats(est), int64(c.seeds), int64(c.seeds) * int64(c.cfg.Slots), err
		})
	}
	c := w.seq
	p.cell(c.name, func(sp *span) (string, int64, int64, error) {
		var mg, mf, mj timer
		gen, alg, judge := c.decorate(p.tr, &mg, &mf, &mj)
		eval := ratio.FleetChunks(c.cfg, alg, judge, gen, c.seedBase, c.batch)
		est, rep, err := ratio.RunSequential(ctx, eval, ratio.SequentialOptions{Target: w.seqTo, Chunk: seqChunk, MaxRuns: c.seeds})
		flushFleet(p.tr, sp, &mg, &mf, &mj)
		p.note("seeds_to_target", float64(rep.Seeds))
		p.note("seq_chunks", float64((rep.Seeds+seqChunk-1)/seqChunk))
		text := fmt.Sprintf("%s seeds=%d met=%t", estStats(est), rep.Seeds, rep.TargetMet)
		return text, int64(rep.Seeds), int64(rep.Seeds) * int64(c.cfg.Slots), err
	})
}

func (w *fleetMonteCarlo) layers(lv *layerView) map[string]float64 {
	out := map[string]float64{
		"fleet.busy_frac.fleet_montecarlo":         lv.frac("fleet.step", ""),
		"offline.judge_busy_frac.fleet_montecarlo": lv.frac("offline.judge", ""),
		"packet.generate_ns_per_pkt":               lv.ix.sum("packet.generate", "").perItem(),
		"ratio.seeds_to_target":                    lv.med("bare", "seeds_to_target"),
		"ratio.chunks":                             lv.med("bare", "seq_chunks"),
		"fleet.kernel_frac":                        0,
	}
	if k, f := lv.counter(obs.MetricFleetKernel), lv.counter(obs.MetricFleetFallback); k+f > 0 {
		out["fleet.kernel_frac"] = k / (k + f)
	}
	// Stepping and judging overlap inside a chunk, so what blocks a cell is
	// generation plus the longer of the two; the driver's own time is what
	// is left of the cell.
	var blocked, cells float64
	for _, c := range append(w.cells, w.seq) {
		anc := "cell:" + c.name
		step, judge := lv.ix.sum("fleet.step", anc), lv.ix.sum("offline.judge", anc)
		blocked += float64(lv.ix.sum("packet.generate", anc).ns + max(step.ns, judge.ns))
		cells += float64(lv.ix.sum(anc, "").ns)
		if c.name != w.seq.name {
			out["fleet.step_ns_per_slot."+c.name] = step.perItem()
		}
		switch c.name {
		case "gm16", "pg64", "pg256":
			out["offline.ub_ns_per_pkt."+c.name] = judge.perItem()
		}
	}
	out["ratio.driver_self_frac.fleet_montecarlo"] = 0
	if cells > 0 {
		out["ratio.driver_self_frac.fleet_montecarlo"] = max(0, 1-blocked/cells)
	}
	return out
}

func (w *fleetMonteCarlo) close() error { return nil }
