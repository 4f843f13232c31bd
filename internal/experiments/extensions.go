package experiments

import (
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// E13EdgeOrder is the ablation for GM's one free design choice: the edge
// scan order of the greedy maximal matching. The paper allows any fixed
// order; this experiment quantifies how much the choice matters on benign
// and adversarial traffic (answer: little on random traffic, a lot
// against an adversary tuned to the order — see E14).
func E13EdgeOrder(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 400)
	seeds := opts.pick(3, 10)
	tb := stats.NewTable("E13: GM edge-order ablation",
		"traffic", "order", "mean_throughput", "mean_loss_pct")
	orders := []struct {
		name string
		mk   func() switchsim.CIOQPolicy
	}{
		{"rowmajor", func() switchsim.CIOQPolicy { return &core.GM{} }},
		{"colmajor", func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} }},
		{"rotating", func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }},
		{"longestfirst", func() switchsim.CIOQPolicy { return &core.GM{Order: core.LongestFirst} }},
		{"random", func() switchsim.CIOQPolicy { return &core.RandomizedGM{} }},
	}
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.0},
		packet.Hotspot{Load: 1.1, HotFrac: 0.5},
		packet.Diagonal{Load: 1.0, OffFrac: 0.1},
	}
	cfg := opts.cfg(switchsim.Config{Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1, Slots: slots})
	for gi, gen := range gens {
		for _, ord := range orders {
			var thr, loss stats.Acc
			for s := 0; s < seeds; s++ {
				seq := gen.Generate(rng.New(opts.Seed+int64(100*gi+s)), n, n, slots*3/4)
				res, err := switchsim.RunCIOQ(cfg, ord.mk(), seq)
				if err != nil {
					return nil, fmt.Errorf("e13: %w", err)
				}
				thr.Add(res.Throughput())
				loss.Add(100 * res.M.LossRate())
			}
			tb.AddRow(gen.Name(), ord.name, thr.Mean(), loss.Mean())
		}
	}
	return []*stats.Table{tb}, nil
}

// E14Randomization probes the paper's open problem (Section 4: "no result
// is known on any randomized algorithm in these models") from both sides
// of the adversary model:
//
//   - Against a fully ADAPTIVE adversary — one that observes the policy's
//     queues after every slot (via the stepper API) and refills a queue
//     that is provably still occupied — randomization cannot help: every
//     policy, deterministic or randomized, is forced to exactly 2 - 1/m.
//     This is the classical reason randomized competitive analysis
//     assumes oblivious adversaries.
//
//   - Against the OBLIVIOUS lower-bound sequence (fixed in advance,
//     tuned to row-major GM), the randomized scan dodges many refill
//     traps and its expected ratio drops well below 2 - 1/m, while the
//     deterministic orders the sequence was not tuned to may or may not
//     escape. This is the empirical signal that randomization has room
//     to beat the deterministic lower bounds — exactly the open problem.
func E14Randomization(opts Options) ([]*stats.Table, error) {
	phases := opts.pick(2, 4)
	tbA := stats.NewTable("E14a: fully adaptive (observing) adversary",
		"m", "policy", "alg_benefit", "exact_opt", "ratio", "deterministic_lb")
	policies := []struct {
		name string
		mk   func() switchsim.CIOQPolicy
	}{
		{"gm (rowmajor)", func() switchsim.CIOQPolicy { return &core.GM{} }},
		{"gm (rotating)", func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }},
		{"gm-random", func() switchsim.CIOQPolicy { return &core.RandomizedGM{Seed: opts.Seed + 5} }},
	}
	for _, m := range []int{4, 6, 8} {
		cfg := opts.cfg(adversary.IQLowerBoundCfg(m))
		for _, pol := range policies {
			seq, benefit, err := adversary.AdaptiveAntiGreedy(cfg, pol.mk(), phases)
			if err != nil {
				return nil, fmt.Errorf("e14a m=%d %s: %w", m, pol.name, err)
			}
			opt, err := offline.ExactUnitCIOQ(cfg, seq)
			if err != nil {
				return nil, fmt.Errorf("e14a m=%d opt: %w", m, err)
			}
			ratio := 0.0
			if benefit > 0 {
				ratio = float64(opt) / float64(benefit)
			}
			tbA.AddRow(m, pol.name, benefit, opt, ratio, 2-1/float64(m))
		}
	}

	tbB := stats.NewTable("E14b: oblivious lower-bound sequence (tuned to row-major GM)",
		"m", "policy", "mean_benefit", "exact_opt", "ratio", "deterministic_lb")
	trials := opts.pick(5, 20)
	for _, m := range []int{4, 6, 8} {
		cfg := opts.cfg(adversary.IQLowerBoundCfg(m))
		seq := adversary.IQLowerBound(m, phases)
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			return nil, fmt.Errorf("e14b m=%d opt: %w", m, err)
		}
		// Deterministic target: the order the sequence was built for.
		det, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e14b: %w", err)
		}
		tbB.AddRow(m, "gm (rowmajor)", float64(det.M.Benefit), opt,
			float64(opt)/float64(det.M.Benefit), 2-1/float64(m))
		// Randomized: expected benefit over independent coin sequences.
		var acc stats.Acc
		for tr := 0; tr < trials; tr++ {
			res, err := switchsim.RunCIOQ(cfg,
				&core.RandomizedGM{Seed: opts.Seed + int64(tr+1)}, seq)
			if err != nil {
				return nil, fmt.Errorf("e14b: %w", err)
			}
			acc.Add(float64(res.M.Benefit))
		}
		tbB.AddRow(m, fmt.Sprintf("gm-random (E over %d runs)", trials),
			acc.Mean(), opt, float64(opt)/acc.Mean(), 2-1/float64(m))
	}
	return []*stats.Table{tbA, tbB}, nil
}

// E15FIFOComparison contrasts the paper's non-FIFO model with the FIFO
// related-work line (Azar–Richter / Kesselman et al.): value-ordered
// queues with tail preemption (PG) versus strict arrival-order queues
// with minimum preemption (AR-FIFO) on identical weighted traffic. The
// non-FIFO freedom is where PG's tighter ratio comes from; the measured
// gap quantifies it.
func E15FIFOComparison(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 300)
	seeds := opts.pick(3, 8)
	tb := stats.NewTable("E15: non-FIFO (paper) vs FIFO (related work) queues",
		"traffic", "policy", "mean_benefit", "mean_frac_of_ub", "mean_latency")
	cfg := opts.cfg(switchsim.Config{Inputs: n, Outputs: n, InputBuf: 3, OutputBuf: 3,
		CrossBuf: 1, Speedup: 1, Slots: slots, RecordLatency: true})
	gens := []packet.Generator{
		packet.Hotspot{Load: 1.5, HotFrac: 0.6, Values: packet.ZipfValues{Hi: 500, S: 1.1}},
		packet.Bursty{OnLoad: 1.0, POnOff: 0.2, POffOn: 0.15, Values: packet.UniformValues{Hi: 50}},
	}
	policies := []struct {
		name string
		mk   func() switchsim.CIOQPolicy
	}{
		{"pg (non-FIFO)", func() switchsim.CIOQPolicy { return &core.PG{} }},
		{"ar-fifo (FIFO)", func() switchsim.CIOQPolicy { return &core.ARFIFO{} }},
		{"naive-fifo", func() switchsim.CIOQPolicy { return &core.NaiveFIFO{} }},
	}
	for gi, gen := range gens {
		for _, pol := range policies {
			var ben, frac, lat stats.Acc
			for s := 0; s < seeds; s++ {
				seq := gen.Generate(rng.New(opts.Seed+int64(100*gi+s)), n, n, slots/2)
				ub, err := offline.OQUpperBound(cfg, seq, false)
				if err != nil {
					return nil, fmt.Errorf("e15: %w", err)
				}
				res, err := switchsim.RunCIOQ(cfg, pol.mk(), seq)
				if err != nil {
					return nil, fmt.Errorf("e15: %w", err)
				}
				ben.Add(float64(res.M.Benefit))
				if ub > 0 {
					frac.Add(float64(res.M.Benefit) / float64(ub))
				}
				lat.Add(res.M.MeanLatency())
			}
			tb.AddRow(gen.Name(), pol.name, ben.Mean(), frac.Mean(), lat.Mean())
		}
	}

	// Crossbar side: CPG (non-FIFO) vs the KKS-style FIFO baseline.
	tbX := stats.NewTable("E15b: crossbar: non-FIFO (CPG) vs FIFO (KKS line)",
		"traffic", "policy", "mean_benefit", "mean_frac_of_ub", "mean_latency")
	xbarPolicies := []struct {
		name string
		mk   func() switchsim.CrossbarPolicy
	}{
		{"cpg (non-FIFO)", func() switchsim.CrossbarPolicy { return &core.CPG{} }},
		{"kks-fifo (FIFO)", func() switchsim.CrossbarPolicy { return &core.KKSFIFO{} }},
		{"crossbar-naive", func() switchsim.CrossbarPolicy { return &core.CrossbarNaive{} }},
	}
	for gi, gen := range gens {
		for _, pol := range xbarPolicies {
			var ben, frac, lat stats.Acc
			for s := 0; s < seeds; s++ {
				seq := gen.Generate(rng.New(opts.Seed+int64(100*gi+s)), n, n, slots/2)
				ub, err := offline.OQUpperBound(cfg, seq, true)
				if err != nil {
					return nil, fmt.Errorf("e15b: %w", err)
				}
				res, err := switchsim.RunCrossbar(cfg, pol.mk(), seq)
				if err != nil {
					return nil, fmt.Errorf("e15b: %w", err)
				}
				ben.Add(float64(res.M.Benefit))
				if ub > 0 {
					frac.Add(float64(res.M.Benefit) / float64(ub))
				}
				lat.Add(res.M.MeanLatency())
			}
			tbX.AddRow(gen.Name(), pol.name, ben.Mean(), frac.Mean(), lat.Mean())
		}
	}
	return []*stats.Table{tb, tbX}, nil
}
