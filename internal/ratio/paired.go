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
	for _, p := range pols {
		pe.Names = append(pe.Names, p.Name)
	}
	if opts.MaxRuns <= 0 {
		pe.Marginals = make([]Estimate, len(pols))
		pe.Diffs = make([]DiffEstimate, max(0, len(pols)-1))
		return pe, nil
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = 16
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = 32
	}
	algs := make([]FleetAlg, len(pols))
	for i, p := range pols {
		algs[i] = p.Alg()
	}
	j := judge()
	conf := opts.Target.ConfidenceLevel()

	outs := make([][]SeedOutcome, len(pols))
	// diffAccs streams the stopping statistics; the final Diffs are
	// recomputed by PairedDiff over the merged marginals (same fold).
	diffAccs := make([]stats.Estimator, max(1, len(pols)-1))
	var marginalAcc stats.Estimator // single-policy stopping
	var scratch pairedScratch
	failed := false
	for k0 := 0; k0 < opts.MaxRuns && !failed; k0 += chunk {
		if err := ctx.Err(); err != nil {
			return pe, err
		}
		k1 := min(opts.MaxRuns, k0+chunk)
		for b0 := k0; b0 < k1 && !failed; b0 += batch {
			b1 := min(k1, b0+batch)
			failed = evalPairedBatch(cfg, algs, j, gen, baseSeed, b0, b1, &pe, outs, &scratch)
		}
		pe.Seeds = min(pe.Seeds, opts.MaxRuns) // evalPairedBatch counts issued seeds
		if failed {
			break
		}
		// Fold the chunk's eligible paired samples into the stopping
		// statistics, in seed order.
		n0 := len(outs[0]) - (k1 - k0)
		for i := n0; i < len(outs[0]); i++ {
			if outs[0][i].Skipped {
				continue
			}
			if len(pols) == 1 {
				marginalAcc.Add(outs[0][i].Ratio)
				continue
			}
			for p := 1; p < len(pols); p++ {
				diffAccs[p-1].Add(outs[p][i].Ratio - outs[0][i].Ratio)
			}
		}
		if opts.Target.Enabled() {
			met := true
			if len(pols) == 1 {
				met = opts.Target.Met(&marginalAcc)
			} else {
				for i := range diffAccs {
					if !opts.Target.Met(&diffAccs[i]) {
						met = false
						break
					}
				}
			}
			if met {
				pe.TargetMet = true
				break
			}
		}
	}

	// Merge marginals; the first error (lowest seed, then lowest policy
	// index) aborts with deterministic attribution.
	pe.Marginals = make([]Estimate, len(pols))
	var firstErr error
	firstSeedIdx, firstPol := -1, -1
	for p := range pols {
		est, err := MergeOutcomes(ctx, outs[p])
		if err != nil {
			idx := erroredIndex(outs[p])
			if firstErr == nil || idx < firstSeedIdx || (idx == firstSeedIdx && p < firstPol) {
				firstErr, firstSeedIdx, firstPol = err, idx, p
			}
			continue
		}
		pe.Marginals[p] = est
	}
	if firstErr != nil {
		return pe, fmt.Errorf("paired policy %q: %w", pols[firstPol].Name, firstErr)
	}
	for p := 1; p < len(pols); p++ {
		d, err := PairedDiff(pe.Marginals[0], pe.Marginals[p], conf)
		if err != nil {
			return pe, fmt.Errorf("paired policy %q: %w", pols[p].Name, err)
		}
		d.Name = pols[p].Name + "-" + pols[0].Name
		pe.Diffs = append(pe.Diffs, d)
	}
	return pe, nil
}

// erroredIndex returns the index of the first outcome carrying an error
// (or NotRun), len(outs) if none.
func erroredIndex(outs []SeedOutcome) int {
	for i, o := range outs {
		if o.Err != nil || o.NotRun {
			return i
		}
	}
	return len(outs)
}

// pairedScratch holds the per-batch buffers evalPairedBatch reuses.
type pairedScratch struct {
	seqs    []packet.Sequence
	optVals []int64
}

// evalPairedBatch evaluates seeds [k0, k1) for every policy on shared
// sequences: each sequence is generated once, judged once, then run
// through all k fleet algs. Per-policy outcomes are appended to outs with
// error semantics identical to EvalChunk (judge errors at their own seed,
// batched policy failures located by per-sequence re-runs, zero-benefit
// surfaced with Single's text), so merged marginals match an independent
// Run of each policy over the same seeds. Returns true when any outcome
// carries an error.
func evalPairedBatch(cfg switchsim.Config, algs []FleetAlg, j Judge, gen packet.Generator,
	baseSeed int64, k0, k1 int, pe *PairedEstimate, outs [][]SeedOutcome, sc *pairedScratch) bool {
	n := k1 - k0
	sc.seqs = sc.seqs[:0]
	sc.optVals = append(sc.optVals[:0], make([]int64, n)...)
	for k := k0; k < k1; k++ {
		sc.seqs = append(sc.seqs, generateSeq(cfg, gen, baseSeed+int64(k)))
	}
	pe.Seeds += n

	// Judge once per sequence; the verdicts are shared by every policy.
	type seedState struct {
		skipped bool
		err     error
	}
	states := make([]seedState, n)
	firstElig := -1
	for i := 0; i < n; i++ {
		optVal, err := j.Judge(cfg, sc.seqs[i])
		pe.JudgeCalls++
		switch {
		case err != nil:
			states[i].err = fmt.Errorf("offline optimum: %w", err)
		case optVal == 0:
			states[i].skipped = true
		default:
			if firstElig < 0 {
				firstElig = i
			}
			sc.optVals[i] = optVal
		}
	}

	anyErr := false
	for p, a := range algs {
		base := len(outs[p])
		for i := 0; i < n; i++ {
			o := SeedOutcome{Seed: baseSeed + int64(k0+i), Skipped: states[i].skipped}
			if states[i].err != nil {
				o.Err = states[i].err
			}
			outs[p] = append(outs[p], o)
		}
		benefits, err := a(cfg, sc.seqs)
		if err == nil && len(benefits) != len(sc.seqs) {
			err = fmt.Errorf("fleet alg returned %d benefits for %d sequences", len(benefits), len(sc.seqs))
		}
		if err != nil {
			// Locate the failing seed(s) by re-running each judged-eligible
			// sequence individually, exactly like EvalChunk.
			witnessed := false
			for i := 0; i < n; i++ {
				o := &outs[p][base+i]
				if o.Err != nil || o.Skipped {
					continue
				}
				pe.SlotsSimulated += seqSpan(sc.seqs[i])
				bs, rerr := a(cfg, sc.seqs[i:i+1])
				if rerr != nil {
					o.Err = fmt.Errorf("policy run: %w", rerr)
					witnessed = true
					continue
				}
				if len(bs) != 1 {
					o.Err = fmt.Errorf("policy run: fleet alg returned %d benefits for 1 sequence", len(bs))
					witnessed = true
					continue
				}
				fillOutcome(o, sc.optVals[i], bs[0])
			}
			if !witnessed && firstElig >= 0 {
				outs[p][base+firstElig] = SeedOutcome{Seed: outs[p][base+firstElig].Seed,
					Err: fmt.Errorf("policy run: %w", err)}
			}
			anyErr = true
			continue
		}
		for i := 0; i < n; i++ {
			pe.SlotsSimulated += seqSpan(sc.seqs[i])
			o := &outs[p][base+i]
			if o.Err != nil || o.Skipped {
				continue
			}
			fillOutcome(o, sc.optVals[i], benefits[i])
		}
		for i := 0; i < n; i++ {
			if outs[p][base+i].Err != nil {
				anyErr = true
			}
		}
	}
	return anyErr
}
