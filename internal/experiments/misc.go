package experiments

import (
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// E8Adversarial exercises the lower-bound machinery: the hand-crafted
// (2-1/m) IQ-model family hits its ratio exactly, and the local-search
// fuzzer pushes GM and PG as high as it can while never crossing the
// proven upper bounds — the empirical squeeze between lower and upper
// bounds that frames the paper's open problem (Section 4).
func E8Adversarial(opts Options) ([]*stats.Table, error) {
	tbA := stats.NewTable("E8a: IQ-model greedy lower bound family (GM)",
		"m", "phases", "gm_benefit", "opt", "ratio", "construction_ratio", "upper_bound")
	phases := opts.pick(2, 6)
	for _, m := range []int{2, 3} {
		cfg := adversary.IQLowerBoundCfg(m)
		seq := adversary.IQLowerBound(m, phases)
		res, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e8a: %w", err)
		}
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			return nil, fmt.Errorf("e8a: %w", err)
		}
		tbA.AddRow(m, phases, res.M.Benefit, opt,
			float64(opt)/float64(res.M.Benefit), 2-1/float64(m), 3.0)
	}
	// Larger m: OPT is analytic — the construction delivers all 2m-1
	// packets per phase (proved in the adversary package docs), and the
	// exact DP confirms it for m <= 3 above.
	for _, m := range []int{4, 8, 16} {
		cfg := adversary.IQLowerBoundCfg(m)
		seq := adversary.IQLowerBound(m, phases)
		res, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e8a: %w", err)
		}
		opt := int64((2*m - 1) * phases)
		tbA.AddRow(m, phases, res.M.Benefit, opt,
			float64(opt)/float64(res.M.Benefit), 2-1/float64(m), 3.0)
	}

	// improve_bound is the clean-sample confidence annotation on each hunt
	// verdict: with R independent restarts all topping out at best_ratio,
	// P(a fresh restart improves) <= improve_bound at the table's
	// confidence level (the found ratio itself is a proven witness).
	tbB := stats.NewTable("E8b: adversarial local search (fuzzer)",
		"target", "judge", "iterations", "best_ratio", "improve_bound", "proven_bound", "within")
	iters := opts.pick(60, 1500)
	cfg := opts.cfg(switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1,
		CrossBuf: 1, Speedup: 1})
	gmJudge := ratio.ExactUnitCIOQ()
	gmEval := adversary.Memo(func(seq packet.Sequence) (float64, bool) {
		r, ok, err := ratio.Single(cfg,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
			gmJudge, seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	})
	resGM := adversary.Search(adversary.SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 5, MaxPackets: 8,
		MaxValue: 1, Iterations: iters, Seed: opts.Seed, Restarts: 2,
	}, gmEval)
	huntBound := stats.ExceedanceBound(2, 1-opts.confidence())
	tbB.AddRow("gm (unit)", "exact OPT", resGM.Tried, resGM.Ratio, huntBound, 3.0,
		boolMark(resGM.Ratio <= 3.0+1e-9))

	pgJudge := ratio.ExactWeightedCIOQ()
	pgEval := adversary.Memo(func(seq packet.Sequence) (float64, bool) {
		r, ok, err := ratio.Single(cfg,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.PG{} }),
			pgJudge, seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	})
	resPG := adversary.Search(adversary.SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 4, MaxPackets: 7,
		MaxValue: 16, Iterations: iters / 2, Seed: opts.Seed + 1, Restarts: 2,
	}, pgEval)
	bound := core.PGRatio(core.DefaultBetaPG())
	tbB.AddRow("pg (weighted)", "exact OPT", resPG.Tried, resPG.Ratio, huntBound, bound,
		boolMark(resPG.Ratio <= bound+1e-9))

	// Structured constructions: geometric preemption chains aimed at the
	// weighted algorithms' β machinery, and pattern flips aimed at
	// pointer-based schedulers. Judged by the exact weighted optimum on
	// micro variants and the combined upper bound at size.
	tbC := stats.NewTable("E8c: structured adversarial constructions",
		"construction", "target", "judge", "ratio", "proven_bound", "within")
	{
		// Speedup 2 with a unit output buffer is the regime where the
		// beta gate (and hence output preemption) actually binds.
		cfgW := opts.cfg(switchsim.Config{Inputs: 2, Outputs: 1, InputBuf: 1, OutputBuf: 1,
			CrossBuf: 1, Speedup: 2})
		seq := adversary.PreemptionChains(2, core.DefaultBetaPG(), 3, 2)
		r, ok, err := ratio.Single(cfgW,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.PG{} }),
			ratio.ExactWeightedCIOQ(), seq)
		if err != nil {
			return nil, fmt.Errorf("e8c chains: %w", err)
		}
		if ok {
			tbC.AddRow("preemption-chains(beta*)", "pg", "exact OPT", r, bound,
				boolMark(r <= bound+1e-9))
		}
	}
	{
		n := opts.pick(4, 8)
		cfgF := opts.cfg(switchsim.Config{Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1})
		seq := adversary.DiagonalFlip(n, 6, opts.pick(3, 8))
		ubJudge := ratio.UpperBoundCIOQ()
		r, ok, err := ratio.Single(cfgF,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.RoundRobin{} }),
			ubJudge, seq)
		if err != nil {
			return nil, fmt.Errorf("e8c flip: %w", err)
		}
		if ok {
			tbC.AddRow("diagonal-flip", "roundrobin", "combined UB", r, 0.0, "n/a (UB judge)")
		}
		r2, ok2, err := ratio.Single(cfgF,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
			ubJudge, seq)
		if err != nil {
			return nil, fmt.Errorf("e8c flip gm: %w", err)
		}
		if ok2 {
			tbC.AddRow("diagonal-flip", "gm", "combined UB", r2, 0.0, "n/a (UB judge)")
		}
	}
	return []*stats.Table{tbA, tbB, tbC}, nil
}

// E10ValueDists studies the weighted algorithms across value models and
// reproduces the paper's closing practical guidance (Section 4): when
// high-value packets are frequent, smaller beta wins (admit aggressively);
// when preemption churn dominates, larger beta wins.
func E10ValueDists(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 300)
	tbA := stats.NewTable("E10a: value-distribution robustness (benefit / offline UB)",
		"values", "policy", "benefit", "ub", "fraction_of_ub")
	dists := []packet.ValueDist{
		packet.TwoValued{Alpha: 2, PHigh: 0.3},
		packet.TwoValued{Alpha: 100, PHigh: 0.1},
		packet.UniformValues{Hi: 50},
		packet.ZipfValues{Hi: 1000, S: 1.2},
		packet.GeometricValues{P: 0.2, Hi: 256},
	}
	cfg := opts.cfg(switchsim.Config{Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 2, Speedup: 1, Slots: slots})
	for di, dist := range dists {
		seq := packet.Hotspot{Load: 1.4, HotFrac: 0.5, Values: dist}.Generate(rng.New(opts.Seed+int64(di)), n, n, slots/2)
		ub, err := offline.OQUpperBound(cfg, seq, false)
		if err != nil {
			return nil, fmt.Errorf("e10a: %w", err)
		}
		for _, pol := range []switchsim.CIOQPolicy{&core.PG{}, &core.KRMWM{}, &core.NaiveFIFO{}} {
			res, err := switchsim.RunCIOQ(cfg, pol, seq)
			if err != nil {
				return nil, fmt.Errorf("e10a: %w", err)
			}
			frac := 0.0
			if ub > 0 {
				frac = float64(res.M.Benefit) / float64(ub)
			}
			tbA.AddRow(dist.Name(), pol.Name(), res.M.Benefit, ub, frac)
		}
	}

	// The beta threshold gates transfers into FULL output queues, so it
	// only matters when the fabric can overfill them: speedup >= 2 and a
	// small output buffer. (At speedup 1 an output queue gains at most
	// one packet per slot and transmits one — it never fills, and every
	// beta behaves identically.)
	tbB := stats.NewTable("E10b: practical beta vs traffic mix (speedup 4, Section 4 guidance)",
		"mix", "beta", "benefit", "output_preemptions")
	cfgB := cfg
	cfgB.Speedup = 4
	cfgB.OutputBuf = 2
	// Note: a two-valued {1, alpha} distribution cannot discriminate
	// between betas inside (1, alpha) — the gate v(g) > beta*v(l) gives
	// the same verdict for every such beta. The mixes below use value
	// CONTINUA so the threshold actually moves.
	mixes := []struct {
		name string
		gen  packet.Generator
	}{
		{"uniform values, hot output", packet.Hotspot{Load: 1.8, HotFrac: 0.8,
			Values: packet.UniformValues{Hi: 64}}},
		{"heavy-tail values, hot output", packet.Hotspot{Load: 1.8, HotFrac: 0.8,
			Values: packet.ZipfValues{Hi: 512, S: 1.1}}},
		{"geometric values, bursty", packet.Bursty{OnLoad: 1.0, POnOff: 0.15, POffOn: 0.1,
			Values: packet.GeometricValues{P: 0.15, Hi: 256}}},
	}
	betas := []float64{1.0, 1.5, core.DefaultBetaPG(), 4.0, 8.0, 32.0}
	for mi, mix := range mixes {
		seq := mix.gen.Generate(rng.New(opts.Seed+int64(100+mi)), n, n, slots/2)
		for _, b := range betas {
			res, err := switchsim.RunCIOQ(cfgB, &core.PG{Beta: b}, seq)
			if err != nil {
				return nil, fmt.Errorf("e10b: %w", err)
			}
			tbB.AddRow(mix.name, fmt.Sprintf("%.3f", b), res.M.Benefit, res.M.PreemptedOutput)
		}
	}
	return []*stats.Table{tbA, tbB}, nil
}

// E11Rect exercises rectangular N x M switches (paper Section 4: the
// results generalize beyond square geometries), checking that both
// architectures run correctly and deliver sensible throughput relative to
// the offline upper bound.
func E11Rect(opts Options) ([]*stats.Table, error) {
	slots := opts.pick(40, 200)
	tb := stats.NewTable("E11: rectangular switches",
		"geometry", "policy", "model", "benefit", "ub", "fraction_of_ub")
	geoms := [][2]int{{2, 8}, {8, 2}, {4, 16}}
	for gi, g := range geoms {
		n, m := g[0], g[1]
		cfg := opts.cfg(switchsim.Config{Inputs: n, Outputs: m, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 2, Speedup: 1, Slots: slots})
		seq := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 10}}.
			Generate(rng.New(opts.Seed+int64(gi)), n, m, slots/2)
		ub, err := offline.OQUpperBound(cfg, seq, false)
		if err != nil {
			return nil, fmt.Errorf("e11: %w", err)
		}
		ubX, err := offline.OQUpperBound(cfg, seq, true)
		if err != nil {
			return nil, fmt.Errorf("e11: %w", err)
		}
		cioq, err := switchsim.RunCIOQ(cfg, &core.PG{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e11: %w", err)
		}
		xbar, err := switchsim.RunCrossbar(cfg, &core.CPG{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e11: %w", err)
		}
		tb.AddRow(fmt.Sprintf("%dx%d", n, m), "pg", "cioq", cioq.M.Benefit, ub,
			float64(cioq.M.Benefit)/float64(max(ub, 1)))
		tb.AddRow(fmt.Sprintf("%dx%d", n, m), "cpg", "crossbar", xbar.M.Benefit, ubX,
			float64(xbar.M.Benefit)/float64(max(ubX, 1)))
	}
	return []*stats.Table{tb}, nil
}

// E12MaximalVsMaximum pits the paper's greedy maximal engines against the
// maximum(-matching) engines of prior work on identical traffic: benefits
// agree within a few percent (both are 3- resp. ~6-competitive) while E5
// shows the cost gap — together they reproduce the paper's core
// efficiency-without-loss message.
func E12MaximalVsMaximum(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 300)
	seeds := opts.pick(3, 10)
	tb := stats.NewTable("E12: greedy maximal vs maximum matching (benefit parity)",
		"traffic", "seeds", "gm/kr-maxmatch", "pg/kr-maxweight")
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.1, Values: packet.UniformValues{Hi: 20}},
		packet.Hotspot{Load: 1.3, HotFrac: 0.6, Values: packet.UniformValues{Hi: 20}},
		packet.Bursty{OnLoad: 1.0, POnOff: 0.25, POffOn: 0.25, Values: packet.UniformValues{Hi: 20}},
	}
	cfg := opts.cfg(switchsim.Config{Inputs: n, Outputs: n, InputBuf: 3, OutputBuf: 3,
		CrossBuf: 1, Speedup: 1, Slots: slots})
	for gi, gen := range gens {
		var accGM, accPG stats.Acc
		for s := 0; s < seeds; s++ {
			seq := gen.Generate(rng.New(opts.Seed+int64(1000*gi+s)), n, n, slots/2)
			unit := seq.Clone()
			for k := range unit {
				unit[k].Value = 1
			}
			gm, err := switchsim.RunCIOQ(cfg, &core.GM{}, unit)
			if err != nil {
				return nil, fmt.Errorf("e12: %w", err)
			}
			krm, err := switchsim.RunCIOQ(cfg, &core.KRMM{}, unit)
			if err != nil {
				return nil, fmt.Errorf("e12: %w", err)
			}
			pg, err := switchsim.RunCIOQ(cfg, &core.PG{}, seq)
			if err != nil {
				return nil, fmt.Errorf("e12: %w", err)
			}
			mwm, err := switchsim.RunCIOQ(cfg, &core.KRMWM{}, seq)
			if err != nil {
				return nil, fmt.Errorf("e12: %w", err)
			}
			accGM.Add(float64(gm.M.Benefit) / float64(max(krm.M.Benefit, 1)))
			accPG.Add(float64(pg.M.Benefit) / float64(max(mwm.M.Benefit, 1)))
		}
		tb.AddRow(gen.Name(), seeds, accGM.Mean(), accPG.Mean())
	}
	return []*stats.Table{tb}, nil
}
