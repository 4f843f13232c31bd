package experiments

import (
	"fmt"
	"math"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// E1GMRatio measures GM's competitive ratio against the exact unit-value
// offline optimum on micro instances across traffic classes, buffer sizes
// and speedups. Reproduces the shape of Theorem 1: every measured ratio
// is at most 3, typically far below.
func E1GMRatio(opts Options) ([]*stats.Table, error) {
	runs := opts.pick(8, 120)
	slots := opts.pick(5, 7)
	tb := stats.NewTable("E1: GM vs exact OPT (bound 3)",
		"config", "traffic", "runs", "max_ratio", "mean_ratio", "ci_hw", "bound", "within")
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.0},
		packet.Bernoulli{Load: 2.0},
		packet.Hotspot{Load: 1.5, HotFrac: 0.8},
		packet.Bursty{OnLoad: 1.0, POnOff: 0.4, POffOn: 0.4},
	}
	alg := cioqRef("gm", func() switchsim.CIOQPolicy { return &core.GM{} })
	cfgs := []switchsim.Config{microCfg(opts, slots)}
	{
		c := microCfg(opts, slots)
		c.InputBuf, c.OutputBuf = 1, 1
		cfgs = append(cfgs, c)
		c2 := microCfg(opts, slots)
		c2.Speedup = 2
		cfgs = append(cfgs, c2)
	}
	for ci, cfg := range cfgs {
		for gi, gen := range gens {
			est, err := opts.estimate(cfg, alg, judgeRef{"exactunit", ratio.ExactUnitCIOQ}, gen,
				opts.Seed+int64(1000*ci+100*gi), runs)
			if err != nil {
				return nil, fmt.Errorf("e1: %w", err)
			}
			tb.AddRow(fmtCfg(cfg), gen.Name(), est.Runs, est.Max, est.Mean,
				est.HalfWidth(opts.confidence()), 3.0, boolMark(est.Max <= 3.0+1e-9))
		}
	}
	return []*stats.Table{tb}, nil
}

// E2PGRatio measures PG against the exact weighted optimum and sweeps the
// threshold beta, reproducing two shapes from Theorem 2: the bound
// beta + 2*beta/(beta-1) is respected everywhere, and beta = 1+sqrt(2)
// minimizes the theoretical curve (the empirical curve is flat near the
// optimum, as the paper's worst cases are adversarial, not random).
func E2PGRatio(opts Options) ([]*stats.Table, error) {
	runs := opts.pick(6, 60)
	slots := opts.pick(3, 4)
	bound := core.PGRatio(core.DefaultBetaPG())
	tbA := stats.NewTable(fmt.Sprintf("E2a: PG (beta=1+sqrt2) vs exact OPT (bound %.4f)", bound),
		"traffic", "runs", "max_ratio", "mean_ratio", "ci_hw", "bound", "within")
	gens := []packet.Generator{
		packet.Bernoulli{Load: 0.8, Values: packet.UniformValues{Hi: 20}},
		packet.Bernoulli{Load: 0.8, Values: packet.TwoValued{Alpha: 50, PHigh: 0.3}},
		packet.Hotspot{Load: 0.9, HotFrac: 0.9, Values: packet.GeometricValues{P: 0.3, Hi: 64}},
		packet.Bursty{OnLoad: 0.8, POnOff: 0.3, POffOn: 0.3, Values: packet.ZipfValues{Hi: 100, S: 1.2}},
	}
	cfg := microCfg(opts, slots)
	alg := cioqRef("pg", func() switchsim.CIOQPolicy { return &core.PG{} })
	for gi, gen := range gens {
		est, err := opts.estimate(cfg, alg, judgeRef{"exactweighted", ratio.ExactWeightedCIOQ}, gen,
			opts.Seed+int64(100*gi), runs)
		if err != nil {
			return nil, fmt.Errorf("e2a: %w", err)
		}
		tbA.AddRow(gen.Name(), est.Runs, est.Max, est.Mean,
			est.HalfWidth(opts.confidence()), bound, boolMark(est.Max <= bound+1e-9))
	}

	// The beta gate only binds when output queues can actually fill,
	// which requires speedup >= 2 (with one cycle per slot, an output
	// queue gains at most one packet per slot and sends one). The sweep
	// therefore runs at speedup 2 with a tight output buffer.
	// The beta sweep is the natural paired comparison: every beta sees the
	// SAME seed stream (all points at opts.Seed+7), so per-seed ratio
	// differences against the baseline beta cancel all workload noise.
	// The dmean/dci_hw columns report that paired difference; with
	// Options.Paired the points share one generated sequence and one
	// offline solve per seed via ratio.RunPaired, and the diff fold is the
	// same ratio.PairedDiff either way, so the table is byte-identical.
	tbB := stats.NewTable("E2b: beta sweep at speedup 2 (figure: ratio vs beta)",
		"beta", "theory_bound", "max_ratio", "mean_ratio", "ci_hw", "dmean", "dci_hw", "within")
	cfgB := cfg
	cfgB.Speedup = 2
	cfgB.OutputBuf = 1
	betas := []float64{1.0, 1.2, 1.5, 1.8, 2.1, 1 + math.Sqrt2, 2.8, 3.2, 4.0, 6.0}
	gen := packet.Hotspot{Load: 1.2, HotFrac: 0.8, Values: packet.GeometricValues{P: 0.35, Hi: 64}}
	pols := make([]policyRef, len(betas))
	for i, beta := range betas {
		b := beta
		pols[i] = cioqRef(fmt.Sprintf("pg(beta=%s)", fmtParam(b)),
			func() switchsim.CIOQPolicy { return &core.PG{Beta: b} })
	}
	ests, err := opts.betaSweepEstimates(cfgB, pols, gen, opts.Seed+7, runs)
	if err != nil {
		return nil, fmt.Errorf("e2b: %w", err)
	}
	conf := opts.confidence()
	for i, beta := range betas {
		est := ests[i]
		theory := core.PGRatio(beta)
		if beta <= 1 {
			theory = math.Inf(1)
		}
		d := prefixDiff(ests[0], est, conf)
		tbB.AddRow(fmt.Sprintf("%.4f", beta), theory, est.Max, est.Mean,
			est.HalfWidth(conf), d.Mean, d.HalfWidth,
			boolMark(beta <= 1 || est.Max <= theory+1e-9))
	}
	return []*stats.Table{tbA, tbB}, nil
}

// betaSweepEstimates measures every point of a policy family over the
// same seed stream: independently through estimate, or — with
// Options.Paired and no shard — through ratio.RunPaired, which steps all
// points on shared sequences with one judge call per seed. Marginal
// estimates are byte-identical either way.
func (o Options) betaSweepEstimates(cfg switchsim.Config, pols []policyRef,
	gen packet.Generator, seed int64, runs int) ([]ratio.Estimate, error) {
	if o.Paired && o.Shard == nil {
		ppols := make([]ratio.PairedPolicy, len(pols))
		for i, p := range pols {
			ppols[i] = ratio.PairedPolicy{Name: p.spec, Alg: p.fleet}
		}
		pe, err := ratio.RunPaired(o.ctx(), cfg, ppols, ratio.ExactWeightedCIOQ, gen, seed,
			ratio.PairedOptions{Batch: fleetBatch, Chunk: o.SeqChunk, Target: o.CITarget, MaxRuns: runs})
		if err != nil {
			return nil, err
		}
		return pe.Marginals, nil
	}
	ests := make([]ratio.Estimate, len(pols))
	for i, pol := range pols {
		est, err := o.estimate(cfg, pol, judgeRef{"exactweighted", ratio.ExactWeightedCIOQ}, gen, seed, runs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol.spec, err)
		}
		ests[i] = est
	}
	return ests, nil
}

// prefixDiff is ratio.PairedDiff over the aligned sample prefix: two
// estimates on the same seed stream share their skip set (the judge
// decides it alone), so sample i of both is the same seed even when
// sequential stopping issued different seed counts — truncating to the
// common prefix keeps the pairing exact.
func prefixDiff(base, other ratio.Estimate, conf float64) ratio.DiffEstimate {
	n := min(len(base.Samples), len(other.Samples))
	base.Samples, other.Samples = base.Samples[:n], other.Samples[:n]
	base.Runs, other.Runs = n, n
	d, err := ratio.PairedDiff(base, other, conf)
	if err != nil {
		return ratio.DiffEstimate{Confidence: conf}
	}
	return d
}

// E3CGURatio measures CGU against the exact unit-value crossbar optimum:
// Theorem 3's bound of 3 (improving the previously proven 4) holds on
// every instance.
func E3CGURatio(opts Options) ([]*stats.Table, error) {
	runs := opts.pick(8, 100)
	slots := opts.pick(4, 6)
	tb := stats.NewTable("E3: CGU vs exact OPT (bound 3; prior analysis gave 4)",
		"config", "traffic", "runs", "max_ratio", "mean_ratio", "ci_hw", "bound", "within")
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.5},
		packet.Hotspot{Load: 1.5, HotFrac: 0.8},
		packet.Bursty{OnLoad: 1.0, POnOff: 0.4, POffOn: 0.4},
	}
	alg := crossbarRef("cgu", func() switchsim.CrossbarPolicy { return &core.CGU{} })
	cfgs := []switchsim.Config{microCfg(opts, slots)}
	{
		c := microCfg(opts, slots)
		c.Speedup = 2
		cfgs = append(cfgs, c)
	}
	for ci, cfg := range cfgs {
		for gi, gen := range gens {
			est, err := opts.estimate(cfg, alg, judgeRef{"exactunit", ratio.ExactUnitCrossbar}, gen,
				opts.Seed+int64(1000*ci+100*gi), runs)
			if err != nil {
				return nil, fmt.Errorf("e3: %w", err)
			}
			tb.AddRow(fmtCfg(cfg), gen.Name(), est.Runs, est.Max, est.Mean,
				est.HalfWidth(opts.confidence()), 3.0, boolMark(est.Max <= 3.0+1e-9))
		}
	}
	return []*stats.Table{tb}, nil
}

// E4CPGParams reproduces Theorem 4's parameter analysis: the closed-form
// optimum (beta*, alpha*) and its ratio ~14.83, the strictly worse beta =
// alpha restriction (~15.59 under this bound; 16.24 as originally proven),
// a grid showing no parameter pair beats the closed form, and empirical
// micro-instance ratios for both parameterizations.
func E4CPGParams(opts Options) ([]*stats.Table, error) {
	tbA := stats.NewTable("E4a: CPG parameter analysis (Theorem 4)",
		"variant", "beta", "alpha", "ratio_bound")
	bStar, aStar := core.DefaultBetaCPG(), core.DefaultAlphaCPG()
	tbA.AddRow("paper optimum (closed form)", bStar, aStar, core.CPGRatio(bStar, aStar))
	bEq, rEq := core.MinimizeCPGEqualParams()
	tbA.AddRow("beta=alpha (Kesselman et al.)", bEq, bEq, rEq)
	bn, an, rn := core.MinimizeCPG()
	tbA.AddRow("numeric 2-d minimum", bn, an, rn)

	tbB := stats.NewTable("E4b: bound over a (beta, alpha) grid (heatmap figure)",
		"beta", "alpha", "ratio_bound")
	gridB := []float64{1.4, 1.6, bStar, 2.1, 2.5}
	gridA := []float64{1.8, 2.2, aStar, 3.4, 4.2}
	for _, b := range gridB {
		for _, a := range gridA {
			tbB.AddRow(b, a, core.CPGRatio(b, a))
		}
	}

	runs := opts.pick(4, 30)
	slots := opts.pick(3, 3)
	cfg := microCfg(opts, slots)
	gen := packet.Bernoulli{Load: 0.7, Values: packet.UniformValues{Hi: 16}}
	tbC := stats.NewTable("E4c: empirical ratio vs exact OPT (micro instances)",
		"variant", "runs", "max_ratio", "mean_ratio", "ci_hw", "bound", "within")
	variants := []struct {
		name  string
		pol   policyRef
		bound float64
	}{
		{"cpg (beta*, alpha*)",
			crossbarRef("cpg", func() switchsim.CrossbarPolicy { return &core.CPG{} }),
			core.CPGRatioClosedForm()},
		{"cpg (beta=alpha)",
			crossbarRef(fmt.Sprintf("cpg(beta=%s,alpha=%s)", fmtParam(bEq), fmtParam(bEq)),
				func() switchsim.CrossbarPolicy { return core.CPGEqualParams() }),
			rEq},
	}
	for vi, v := range variants {
		est, err := opts.estimate(cfg, v.pol, judgeRef{"exactweighted", ratio.ExactWeightedCrossbar},
			gen, opts.Seed+int64(100*vi), runs)
		if err != nil {
			return nil, fmt.Errorf("e4c: %w", err)
		}
		tbC.AddRow(v.name, est.Runs, est.Max, est.Mean,
			est.HalfWidth(opts.confidence()), v.bound,
			boolMark(est.Max <= v.bound+1e-9))
	}
	return []*stats.Table{tbA, tbB, tbC}, nil
}
