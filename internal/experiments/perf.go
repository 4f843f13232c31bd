package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"qswitch/internal/core"
	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// E5MatchingCost times one scheduling decision for each matching engine
// over random dense eligibility graphs of growing size — the paper's
// efficiency argument (Section 1.1): greedy maximal matchings beat the
// maximum(-weight) matchings of prior work by orders of magnitude as N
// grows, which is what makes GM/PG practical in real switches.
func E5MatchingCost(opts Options) ([]*stats.Table, error) {
	sizes := []int{8, 16, 32, 64}
	if !opts.Quick {
		sizes = append(sizes, 128, 256)
	}
	baseReps := opts.pick(20, 200)
	tb := stats.NewTable("E5: scheduling cost per cycle (ns; figure: cost vs N)",
		"N", "edges", "greedy_ns", "greedy_weighted_ns", "hopcroft_karp_ns", "hungarian_ns",
		"hk_vs_greedy", "hungarian_vs_greedyw")
	r := rng.New(opts.Seed)
	for _, n := range sizes {
		// Scale repetitions inversely with size so small-N timings are
		// not dominated by timer noise.
		reps := baseReps * 256 / n
		edges := denseEligibility(r, n, 0.5)
		adj := matching.AdjFromEdges(n, edges)
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
		}
		for _, e := range edges {
			w[e.U][e.V] = e.W
		}
		var sched matching.WeightedScheduler
		g := timeIt(reps, func() { matching.GreedyMaximal(n, n, edges) })
		gw := timeIt(reps, func() { sched.GreedyMaximalWeighted(n, n, edges) })
		hk := timeIt(reps, func() { matching.HopcroftKarp(n, n, adj) })
		hungReps := reps
		if n >= 128 {
			hungReps = reps / 10
			if hungReps == 0 {
				hungReps = 1
			}
		}
		hu := timeIt(hungReps, func() { matching.Hungarian(w) })
		tb.AddRow(n, len(edges), g, gw, hk, hu,
			fmt.Sprintf("%.1fx", float64(hk)/float64(max(g, 1))),
			fmt.Sprintf("%.1fx", float64(hu)/float64(max(gw, 1))))
	}
	return []*stats.Table{tb}, nil
}

func denseEligibility(rng *rand.Rand, n int, p float64) []matching.Edge {
	var edges []matching.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, matching.Edge{U: i, V: j, W: rng.Int63n(100) + 1})
			}
		}
	}
	return edges
}

func timeIt(reps int, f func()) int64 {
	start := time.Now()
	for k := 0; k < reps; k++ {
		f()
	}
	return time.Since(start).Nanoseconds() / int64(reps)
}

// E6Speedup sweeps the speedup s = 1..4 for all four paper algorithms
// under overload, reproducing the "any speedup" robustness: ratios and
// throughput improve monotonically and saturate once the fabric stops
// being the bottleneck.
func E6Speedup(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 400)
	tb := stats.NewTable("E6: throughput vs speedup (figure)",
		"traffic", "speedup", "policy", "model", "throughput", "loss_pct")
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 20}},
		packet.Bursty{OnLoad: 1.0, POnOff: 0.2, POffOn: 0.2, Values: packet.UniformValues{Hi: 20}},
		packet.Hotspot{Load: 1.0, HotFrac: 0.5, Values: packet.UniformValues{Hi: 20}},
	}
	for gi, gen := range gens {
		for speedup := 1; speedup <= 4; speedup++ {
			cfg := opts.cfg(switchsim.Config{
				Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
				Speedup: speedup, Slots: slots,
			})
			seq := gen.Generate(rng.New(opts.Seed+int64(gi)), n, n, slots*3/4)
			for _, pol := range []switchsim.CIOQPolicy{&core.GM{}, &core.PG{}} {
				res, err := switchsim.RunCIOQ(cfg, pol, seq)
				if err != nil {
					return nil, fmt.Errorf("e6: %w", err)
				}
				tb.AddRow(gen.Name(), speedup, pol.Name(), "cioq",
					res.Throughput(), 100*res.M.LossRate())
			}
			for _, pol := range []switchsim.CrossbarPolicy{&core.CGU{}, &core.CPG{}} {
				res, err := switchsim.RunCrossbar(cfg, pol, seq)
				if err != nil {
					return nil, fmt.Errorf("e6: %w", err)
				}
				tb.AddRow(gen.Name(), speedup, pol.Name(), "crossbar",
					res.Throughput(), 100*res.M.LossRate())
			}
		}
	}
	return []*stats.Table{tb}, nil
}

// E7Buffers sweeps buffer capacity for the four algorithms at fixed
// overload, reproducing the buffer-sensitivity figure: throughput climbs
// with B and saturates near the offered load.
func E7Buffers(opts Options) ([]*stats.Table, error) {
	n := opts.pick(4, 8)
	slots := opts.pick(60, 400)
	bufs := []int{1, 2, 4, 8}
	if !opts.Quick {
		bufs = append(bufs, 16, 32)
	}
	tb := stats.NewTable("E7: throughput vs buffer size (figure)",
		"buffer", "policy", "model", "throughput", "loss_pct", "mean_latency")
	gen := packet.Bursty{OnLoad: 1.0, POnOff: 0.25, POffOn: 0.25, Values: packet.UniformValues{Hi: 20}}
	for _, b := range bufs {
		cfg := opts.cfg(switchsim.Config{
			Inputs: n, Outputs: n, InputBuf: b, OutputBuf: b, CrossBuf: b,
			Speedup: 1, Slots: slots, RecordLatency: true,
		})
		seq := gen.Generate(rng.New(opts.Seed), n, n, slots*3/4)
		for _, pol := range []switchsim.CIOQPolicy{&core.GM{}, &core.PG{}} {
			res, err := switchsim.RunCIOQ(cfg, pol, seq)
			if err != nil {
				return nil, fmt.Errorf("e7: %w", err)
			}
			tb.AddRow(b, pol.Name(), "cioq", res.Throughput(), 100*res.M.LossRate(), res.M.MeanLatency())
		}
		for _, pol := range []switchsim.CrossbarPolicy{&core.CGU{}, &core.CPG{}} {
			res, err := switchsim.RunCrossbar(cfg, pol, seq)
			if err != nil {
				return nil, fmt.Errorf("e7: %w", err)
			}
			tb.AddRow(b, pol.Name(), "crossbar", res.Throughput(), 100*res.M.LossRate(), res.M.MeanLatency())
		}
	}
	return []*stats.Table{tb}, nil
}

// E9CIOQvsCrossbar compares the two architectures at matched buffer
// budgets and measures wall-clock scheduling cost, reproducing the paper's
// motivation for buffered crossbars: per-port greedy subphases avoid even
// the greedy matching computation, cutting scheduling overhead while
// matching (or beating) CIOQ throughput on contended traffic.
func E9CIOQvsCrossbar(opts Options) ([]*stats.Table, error) {
	sizes := []int{4, 8}
	if !opts.Quick {
		sizes = append(sizes, 16, 32)
	}
	slots := opts.pick(50, 300)
	tb := stats.NewTable("E9: CIOQ vs buffered crossbar (figure: benefit and cost vs N)",
		"N", "policy", "model", "benefit", "throughput", "sim_ns_per_slot")
	gen := packet.Hotspot{Load: 1.0, HotFrac: 0.4, Values: packet.UniformValues{Hi: 20}}
	for _, n := range sizes {
		cfg := opts.cfg(switchsim.Config{
			Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
			Speedup: 1, Slots: slots,
		})
		seq := gen.Generate(rng.New(opts.Seed+int64(n)), n, n, slots*3/4)
		type runner struct {
			name, model string
			run         func() (*switchsim.Result, error)
		}
		runners := []runner{
			{"gm", "cioq", func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, &core.GM{}, seq) }},
			{"kr-maxmatch", "cioq", func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, &core.KRMM{}, seq) }},
			{"pg", "cioq", func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, &core.PG{}, seq) }},
			{"cgu", "crossbar", func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, &core.CGU{}, seq) }},
			{"cpg", "crossbar", func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, &core.CPG{}, seq) }},
		}
		for _, r := range runners {
			// Time the best of three runs to damp scheduler noise.
			var res *switchsim.Result
			best := int64(1) << 62
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				out, err := r.run()
				if err != nil {
					return nil, fmt.Errorf("e9: %w", err)
				}
				if el := time.Since(start).Nanoseconds(); el < best {
					best = el
				}
				res = out
			}
			tb.AddRow(n, r.name, r.model, res.M.Benefit, res.Throughput(), best/int64(slots))
		}
	}
	return []*stats.Table{tb}, nil
}
