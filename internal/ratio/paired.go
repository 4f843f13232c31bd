package ratio

import (
	"context"
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// PairedPolicy names one arm of a paired comparison.
type PairedPolicy struct {
	// Name labels the policy in reports and error messages.
	Name string
	// Alg is the policy's batched evaluator; RunPaired mints it once and
	// reuses its fleet storage across the whole run.
	Alg FleetAlgFactory
}

// PairedOptions tunes RunPaired.
type PairedOptions struct {
	// Batch is the fleet batch size within a chunk (<= 0 selects 32).
	Batch int
	// Chunk is the seed-chunk size between stopping decisions (<= 0
	// selects 16); as in RunSequential, stopping only at chunk boundaries
	// is what makes the stopped seed count deterministic.
	Chunk int
	// Target optionally stops the run early once EVERY paired-difference
	// CI half-width (vs the baseline policy) clears it; with a single
	// policy it applies to the marginal mean instead. Disabled runs the
	// full budget.
	Target stats.Target
	// MaxRuns is the hard seed budget.
	MaxRuns int
}

// DiffEstimate is the paired-difference estimate between two policies
// evaluated on identical sequences: mean of the per-seed ratio
// differences (other - base) with a Student-t CI. Because the two ratios
// share every arrival, their difference variance excludes all workload
// noise — the common-random-numbers variance reduction that lets paired
// comparisons reach a target CI width with far fewer switch-slots than
// independent sampling.
type DiffEstimate struct {
	// Name labels the comparison, e.g. "pg(beta=2)-pg".
	Name string
	// Runs is the number of eligible paired seeds.
	Runs int
	// Mean is the mean per-seed ratio difference.
	Mean float64
	// HalfWidth is the Student-t CI half-width on Mean at Confidence.
	HalfWidth float64
	// Confidence is the CI confidence level.
	Confidence float64
	// Min and Max are the extreme per-seed differences.
	Min, Max float64
}

// String renders a compact summary.
func (d DiffEstimate) String() string {
	return fmt.Sprintf("diff %s mean=%+.4f±%.4f@%g%% over %d paired seeds",
		d.Name, d.Mean, d.HalfWidth, 100*d.Confidence, d.Runs)
}

// PairedDiff computes the paired-difference estimate between two marginal
// estimates measured on the SAME seed stream (aligned Samples): sample i
// of both estimates must come from the same sequence, which holds for any
// two policies run over identical (judge, gen, baseSeed, runs) — the
// eligible set is decided by the judge alone. It errors when the sample
// counts differ (the streams cannot have been aligned).
//
// RunPaired uses exactly this fold for its Diffs, so a post-hoc
// PairedDiff over independently produced marginals (same seeds) is
// byte-identical to the paired engine's output.
func PairedDiff(base, other Estimate, confidence float64) (DiffEstimate, error) {
	if base.Runs != other.Runs || len(base.Samples) != len(other.Samples) {
		return DiffEstimate{}, fmt.Errorf("paired diff: sample counts differ (%d vs %d); seed streams not aligned",
			len(base.Samples), len(other.Samples))
	}
	d := DiffEstimate{Confidence: confidence, Runs: base.Runs}
	var acc stats.Estimator
	for i, b := range base.Samples {
		x := other.Samples[i] - b
		acc.Add(x)
	}
	d.Mean = acc.Mean()
	d.HalfWidth = acc.HalfWidth(confidence)
	d.Min = acc.Min()
	d.Max = acc.Max()
	return d, nil
}

// PairedEstimate is the result of a paired (common-random-numbers)
// comparison of k policies on identical seeded workloads.
type PairedEstimate struct {
	// Names are the policy names in input order; Names[0] is the
	// baseline every difference is taken against.
	Names []string
	// Marginals are the per-policy estimates, byte-identical to an
	// independent Run of each policy over the same seeds.
	Marginals []Estimate
	// Diffs[i] is the paired difference of policy i+1 minus the baseline.
	Diffs []DiffEstimate
	// Seeds is the number of seed indices issued (eligible + skipped).
	Seeds int
	// TargetMet reports whether the precision target stopped the run.
	TargetMet bool
	// SlotsSimulated is the switch-slot accounting of the policy side:
	// the arrival span of every (policy, sequence) simulation, summed.
	// Identical accounting over an independent design (each policy on its
	// own seed stream) is what the paired-vs-independent benchmark pair
	// compares against.
	SlotsSimulated int64
	// JudgeCalls counts offline-optimum solves — one per seed, shared by
	// all k policies (an independent design pays k per seed).
	JudgeCalls int64
}

// seqSpan is the arrival span of a sequence: the number of slots up to
// and including the last arrival. It is the unit SlotsSimulated counts.
func seqSpan(seq packet.Sequence) int64 {
	if len(seq) == 0 {
		return 0
	}
	return int64(seq[len(seq)-1].Arrival) + 1
}

// WorkloadSlots sums the arrival spans of the workloads seeds [0, runs)
// draw from gen — the switch-slot accounting an independent design
// spends simulating ONE policy over that seed stream. It lets callers
// (the paired-vs-independent benchmark) charge independent sampling in
// exactly the units PairedEstimate.SlotsSimulated uses.
func WorkloadSlots(cfg switchsim.Config, gen packet.Generator, baseSeed int64, runs int) int64 {
	var total int64
	for k := 0; k < runs; k++ {
		total += seqSpan(generateSeq(cfg, gen, baseSeed+int64(k)))
	}
	return total
}

// RunPaired compares k policies with common random numbers: every seed's
// sequence is generated once, judged once, and fed to all k policies (the
// columnar fleet engine makes the extra arms nearly free), and the
// per-seed ratio DIFFERENCES against the baseline policy get their own
// Student-t CIs. Marginal estimates are byte-identical to an independent
// Run of each policy over the same seeds; the paired differences are what
// shrink — Var(A-B) on shared sequences excludes all workload variance,
// so policy-vs-policy targets are reached with a fraction of the
// switch-slots.
//
// With opts.Target enabled, seeds are issued chunk by chunk until every
// paired-difference half-width clears the target (the marginal mean's for
// a single policy) or the budget runs out; stopping is decided only at
// chunk boundaries, so the run is deterministic given (baseSeed,
// opts.Chunk). Worst-seed tails on the marginals are available via
// Estimate.TailQuantiles.
func RunPaired(ctx context.Context, cfg switchsim.Config, pols []PairedPolicy, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, opts PairedOptions) (PairedEstimate, error) {
	pe := PairedEstimate{}
	if len(pols) == 0 {
		return pe, fmt.Errorf("paired: no policies")
	}
	k := len(pols)
	algs := make([]FleetAlg, k)
	for i, p := range pols {
		pe.Names = append(pe.Names, p.Name)
		algs[i] = p.Alg()
	}
	pe.Marginals = make([]Estimate, k)
	if opts.MaxRuns <= 0 {
		pe.Diffs = make([]DiffEstimate, k-1)
		return pe, nil
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = 32
	}
	var sc armScratch
	eval := armChunks(cfg, algs, judge(), gen, baseSeed, batch, &sc)
	outs, rep, err := drive(ctx, plan{runs: opts.MaxRuns, chunk: opts.Chunk, workers: 1, arms: k,
		target: opts.Target, mint: func() ChunkEvaluator { return eval }})
	if err != nil {
		return pe, err
	}
	pe.Seeds, pe.TargetMet = rep.Seeds, rep.TargetMet
	pe.SlotsSimulated, pe.JudgeCalls = int64(k)*sc.spans, sc.judged

	// Merge each arm in seed order. Outcomes are seed-major, so the first
	// failed one is the lowest seed's, then the lowest policy index's.
	errs := make([]error, k)
	arm := make([]SeedOutcome, 0, rep.Seeds)
	for p := range pols {
		arm = arm[:0]
		for i := p; i < len(outs); i += k {
			arm = append(arm, outs[i])
		}
		pe.Marginals[p], errs[p] = MergeOutcomes(ctx, arm)
	}
	for i, o := range outs {
		if o.Err != nil || o.NotRun {
			return pe, fmt.Errorf("paired policy %q: %w", pols[i%k].Name, errs[i%k])
		}
	}
	for p := 1; p < k; p++ {
		d, err := PairedDiff(pe.Marginals[0], pe.Marginals[p], rep.Confidence)
		if err != nil {
			return pe, fmt.Errorf("paired policy %q: %w", pols[p].Name, err)
		}
		d.Name = pols[p].Name + "-" + pols[0].Name
		pe.Diffs = append(pe.Diffs, d)
	}
	return pe, nil
}
