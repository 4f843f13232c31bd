package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"qswitch/internal/adversary"
	"qswitch/internal/iq"
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
)

// E16IQModel grounds the paper's Section 1.2/4 claims about the IQ model:
//
//   - GM and PG collapse to the classical IQ algorithms on the reduction
//     (verified exactly by the test suite; here the measured ratios of
//     the IQ policies against the exact flow optimum are reported),
//   - the known IQ bounds frame everything: any greedy is 2-competitive
//     with a (2 - 1/B) greedy lower bound, TLH is 3-competitive, and the
//     e/(e-1) ≈ 1.58 randomized lower bound applies to ALL policies —
//     and therefore to CIOQ and buffered crossbars too.
//
// Because the IQ optimum is a single min-cost flow, the measurement runs
// at real scale (m up to 32, hundreds of slots), unlike the micro-scale
// CIOQ optima.
func E16IQModel(opts Options) ([]*stats.Table, error) {
	slots := opts.pick(40, 200)
	runs := opts.pick(5, 30)
	tbA := stats.NewTable("E16a: IQ policies vs exact flow OPT",
		"m", "B", "policy", "runs", "max_ratio", "mean_ratio", "bound")
	type polSpec struct {
		name  string
		mk    func() iq.Policy
		bound float64
	}
	pols := []polSpec{
		{"iq-greedy-longest", func() iq.Policy { return &iq.Greedy{} }, 2},
		{"iq-greedy-first", func() iq.Policy { return &iq.Greedy{Order: iq.FirstNonEmpty} }, 2},
		{"iq-tlh", func() iq.Policy { return &iq.TLH{} }, 3},
		{"iq-maxhead", func() iq.Policy { return &iq.MaxHead{} }, 3},
	}
	geoms := [][2]int{{4, 2}, {16, 4}}
	if !opts.Quick {
		geoms = append(geoms, [2]int{32, 8})
	}
	for _, geom := range geoms {
		m, b := geom[0], geom[1]
		// Bounded horizon: arrivals plus a short drain window. Under
		// overload the unbounded horizon would grow with the backlog
		// and blow up the flow network for no analytic gain (both OPT
		// and the policies see the same truncation).
		horizon := slots + 2*m
		for _, valueClass := range []struct {
			values packet.ValueDist
			bound  float64
		}{
			{packet.UnitValues{}, 2},
			{packet.UniformValues{Hi: 50}, 3},
		} {
			// One exact OPT per workload, shared by the class's
			// policies.
			type sample struct {
				seq packet.Sequence
				opt int64
				err error
			}
			// The exact flow optima are independent; fan them out.
			samples := make([]sample, runs)
			var wg sync.WaitGroup
			sem := make(chan struct{}, runtime.GOMAXPROCS(0))
			for r := 0; r < runs; r++ {
				r := r
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					seq := packet.Bernoulli{Load: 1.8, Values: valueClass.values}.
						Generate(rng.New(opts.Seed+int64(r)), 1, m, slots)
					opt, err := iq.ExactOPT(m, b, seq, horizon)
					samples[r] = sample{seq, opt, err}
				}()
			}
			wg.Wait()
			for _, s := range samples {
				if s.err != nil {
					return nil, fmt.Errorf("e16a: %w", s.err)
				}
			}
			for _, ps := range pols {
				if ps.bound != valueClass.bound {
					continue
				}
				var acc stats.Acc
				maxRatio := 0.0
				for _, s := range samples {
					if s.opt == 0 {
						continue
					}
					res, err := iq.Run(m, b, ps.mk(), s.seq, horizon)
					if err != nil {
						return nil, fmt.Errorf("e16a: %w", err)
					}
					ratio := float64(s.opt) / float64(res.Benefit)
					acc.Add(ratio)
					maxRatio = math.Max(maxRatio, ratio)
				}
				tbA.AddRow(m, b, ps.name, acc.N(), maxRatio, acc.Mean(), ps.bound)
			}
		}
	}

	// The adversarial family at scale: exact flow OPT confirms the
	// construction value for every m (no DP size limits here).
	tbB := stats.NewTable("E16b: greedy lower-bound family at scale (exact flow OPT)",
		"m", "greedy_benefit", "exact_opt", "ratio", "2-1/m", "randomized_lb_e/(e-1)")
	phases := opts.pick(2, 5)
	for _, m := range []int{2, 4, 8, 16, 32} {
		seq := adversary.IQLowerBound(m, phases)
		opt, err := iq.ExactOPT(m, 1, seq, seq.MaxSlot()+2*m)
		if err != nil {
			return nil, fmt.Errorf("e16b: %w", err)
		}
		res, err := iq.Run(m, 1, &iq.Greedy{Order: iq.FirstNonEmpty}, seq, seq.MaxSlot()+2*m)
		if err != nil {
			return nil, fmt.Errorf("e16b: %w", err)
		}
		tbB.AddRow(m, res.Benefit, opt,
			float64(opt)/float64(res.Benefit), 2-1/float64(m), math.E/(math.E-1))
	}
	return []*stats.Table{tbA, tbB}, nil
}
