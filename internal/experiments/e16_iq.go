package experiments

import (
	"fmt"
	"math"

	"qswitch/internal/adversary"
	"qswitch/internal/core"
	"qswitch/internal/iq"
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// E16IQModel grounds the paper's Section 1.2/4 claims about the IQ model:
//
//   - GM and PG collapse to the classical IQ algorithms on the reduction,
//     a CIOQ switch with one input and speedup 1, so every row runs on
//     switchsim.RunCIOQ over iq.Reduction. The tests pin the four rows to
//     an independent IQ simulator, and PG to iq.LargestHead{ByValue: true}
//     when values are pairwise distinct (PG breaks equal heads by queue
//     index); here the measured ratios against the exact optimum are
//     reported,
//   - the known IQ bounds frame everything: any greedy is 2-competitive
//     with a (2 - 1/B) greedy lower bound, TLH is 3-competitive, and the
//     e/(e-1) ≈ 1.58 randomized lower bound applies to ALL policies —
//     and therefore to CIOQ and buffered crossbars too.
//
// Because the IQ optimum is an exact value-ordered greedy (iq.ExactOPT),
// the measurement runs at real scale (m up to 32, hundreds of slots),
// unlike the micro-scale CIOQ optima.
func E16IQModel(opts Options) ([]*stats.Table, error) {
	slots := opts.pick(40, 200)
	runs := opts.pick(5, 30)
	tbA := stats.NewTable("E16a: IQ policies vs exact flow OPT",
		"m", "B", "policy", "runs", "max_ratio", "mean_ratio", "bound")
	pols := []struct {
		name  string
		pol   switchsim.CIOQPolicy
		bound float64
	}{
		{"iq-greedy-longest", &core.GM{Order: core.LongestFirst}, 2},
		{"iq-greedy-first", &core.GM{}, 2},
		{"iq-tlh", &iq.LargestHead{}, 3},
		{"iq-maxhead", &iq.LargestHead{ByValue: true}, 3},
	}
	geoms := [][2]int{{4, 2}, {16, 4}}
	if !opts.Quick {
		geoms = append(geoms, [2]int{32, 8})
	}
	for _, geom := range geoms {
		m, b := geom[0], geom[1]
		// Bounded horizon: arrivals plus a short drain window. Under
		// overload the unbounded horizon would grow with the backlog
		// and blow up the exact solve for no analytic gain (both OPT
		// and the policies see the same truncation).
		horizon := slots + 2*m
		for _, valueClass := range []struct {
			values packet.ValueDist
			bound  float64
		}{
			{packet.UnitValues{}, 2},
			{packet.UniformValues{Hi: 50}, 3},
		} {
			// One exact OPT per workload, shared by the class's policies.
			seqs, opt := make([]packet.Sequence, runs), make([]int64, runs)
			for r := range seqs {
				seqs[r] = packet.Bernoulli{Load: 1.8, Values: valueClass.values}.
					Generate(rng.New(opts.Seed+int64(r)), 1, m, slots)
				var err error
				if opt[r], err = iq.ExactOPT(m, b, seqs[r], horizon); err != nil {
					return nil, fmt.Errorf("e16a: %w", err)
				}
			}
			for _, ps := range pols {
				if ps.bound != valueClass.bound {
					continue
				}
				var acc stats.Acc
				maxRatio := 0.0
				for r, seq := range seqs {
					if opt[r] == 0 {
						continue
					}
					res, err := switchsim.RunCIOQ(iq.Reduction(m, b, horizon), ps.pol, seq)
					if err != nil {
						return nil, fmt.Errorf("e16a: %w", err)
					}
					ratio := float64(opt[r]) / float64(res.M.Benefit)
					acc.Add(ratio)
					maxRatio = math.Max(maxRatio, ratio)
				}
				tbA.AddRow(m, b, ps.name, acc.N(), maxRatio, acc.Mean(), ps.bound)
			}
		}
	}

	// The adversarial family at scale: the exact OPT confirms the
	// construction value for every m (no DP size limits here).
	tbB := stats.NewTable("E16b: greedy lower-bound family at scale (exact flow OPT)",
		"m", "greedy_benefit", "exact_opt", "ratio", "2-1/m", "randomized_lb_e/(e-1)")
	phases := opts.pick(2, 5)
	for _, m := range []int{2, 4, 8, 16, 32} {
		seq := adversary.IQLowerBound(m, phases)
		horizon := seq.MaxSlot() + 2*m
		opt, err := iq.ExactOPT(m, 1, seq, horizon)
		if err != nil {
			return nil, fmt.Errorf("e16b: %w", err)
		}
		res, err := switchsim.RunCIOQ(iq.Reduction(m, 1, horizon), &core.GM{}, seq)
		if err != nil {
			return nil, fmt.Errorf("e16b: %w", err)
		}
		tbB.AddRow(m, res.M.Benefit, opt,
			float64(opt)/float64(res.M.Benefit), 2-1/float64(m), math.E/(math.E-1))
	}
	return []*stats.Table{tbA, tbB}, nil
}
