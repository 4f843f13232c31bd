package ratio

import (
	"context"
	"fmt"
	"slices"

	"qswitch/internal/packet"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// SeedOutcome is one seed's measurement: the currency every ratio backend
// (sequential, parallel, fleet, sharded) produces before the deterministic
// seed-ordered merge. Outcomes are pure functions of (cfg, alg, judge,
// gen, seed), so any backend — including an out-of-process worker — yields
// the same outcome for the same seed, and MergeOutcomes folds them into
// Estimates that are byte-identical across backends.
type SeedOutcome struct {
	// Seed is the RNG seed the workload was drawn from.
	Seed int64
	// Ratio is OPT/ALG for the seed's sequence (meaningful only when
	// neither Skipped nor Err is set).
	Ratio float64
	// Skipped marks seeds whose offline optimum was zero (the ratio is
	// vacuous).
	Skipped bool
	// Err is the seed's evaluation error, if any. Errors are deterministic
	// per seed, so every backend attributes the same error to the same
	// seed.
	Err error
	// NotRun marks seeds that were never evaluated because the run was
	// cancelled first. MergeOutcomes maps them to the context's error.
	NotRun bool
}

// MergeOutcomes folds seed-ordered outcomes into an Estimate exactly the
// way the sequential Run does: scanning in seed order, the first errored
// seed aborts the merge with that seed's error; skipped seeds count as
// Skipped; everything else accumulates into the mean/CI/max statistics.
// A NotRun outcome yields ctx's error (the run was cancelled before the
// seed was evaluated). The fold is what pins all backends byte-identical.
func MergeOutcomes(ctx context.Context, outs []SeedOutcome) (Estimate, error) {
	var est Estimate
	var acc stats.Acc
	for _, o := range outs {
		if o.Err != nil {
			return est, fmt.Errorf("ratio: seed %d: %w", o.Seed, o.Err)
		}
		if o.NotRun {
			if err := ctx.Err(); err != nil {
				return est, err
			}
			return est, fmt.Errorf("ratio: seed %d was not evaluated", o.Seed)
		}
		if o.Skipped {
			est.Skipped++
			continue
		}
		acc.Add(o.Ratio)
		est.Samples = append(est.Samples, o.Ratio)
		if o.Ratio > est.Max {
			est.Max = o.Ratio
			est.WorstSeed = o.Seed
		}
		est.Runs++
	}
	est.Mean = acc.Mean()
	est.CI95 = acc.CI95()
	return est, nil
}

// evalSeed measures one seed with a scalar Alg, producing the outcome
// ScalarChunks yields. The error text matches EvalChunk's for the same
// seed, so attribution is identical across backends.
func evalSeed(cfg switchsim.Config, alg Alg, j Judge, gen packet.Generator, seed int64) SeedOutcome {
	seq := generateSeq(cfg, gen, seed)
	r, ok, err := Single(cfg, alg, j, seq)
	return SeedOutcome{Seed: seed, Ratio: r, Skipped: !ok && err == nil, Err: err}
}

// generateSeq draws seed's workload; every backend calls exactly this, so
// a seed names the same sequence everywhere (including remote workers).
func generateSeq(cfg switchsim.Config, gen packet.Generator, seed int64) packet.Sequence {
	rng := newSeedRand(seed)
	return gen.Generate(rng, cfg.Inputs, cfg.Outputs, pickSlots(cfg))
}

// EvalChunk evaluates seeds [k0, k1) with a batched FleetAlg and a minted
// Judge, appending one outcome per seed to out (which is reset first).
// The batch's policy runs step on a side goroutine while the judge scores
// the batch's sequences, so judging overlaps fleet stepping.
//
// Error attribution matches the scalar backends exactly: judge errors are
// recorded at their own seed, and when the batched policy call fails the
// chunk falls back to single-sequence policy runs to locate which seeds
// actually fail (per-seed results are deterministic, so the re-run
// reproduces the error at its true seed). Only if no individual run fails
// — a batch-level fault with no per-seed witness — is the batch error
// attributed to the chunk's first eligible seed.
func EvalChunk(cfg switchsim.Config, a FleetAlg, j Judge, gen packet.Generator,
	baseSeed int64, k0, k1 int, out []SeedOutcome) []SeedOutcome {
	return evalArms(cfg, []FleetAlg{a}, j, gen, baseSeed, k0, k1, out, &armScratch{})
}

// armScratch is the buffers evalArms reuses, plus what it has done: the
// summed arrival spans of the sequences it generated and its judge calls.
type armScratch struct {
	seqs          []packet.Sequence
	optVals       []int64
	spans, judged int64
}

// evalArms is EvalChunk over k arms sharing one generated sequence and one
// judge call per seed: out holds k outcomes per seed, seed-major, and arm
// a's outcomes are exactly EvalChunk's with that arm alone. The arms step
// one after another on the side goroutine.
func evalArms(cfg switchsim.Config, arms []FleetAlg, j Judge, gen packet.Generator,
	baseSeed int64, k0, k1 int, out []SeedOutcome, sc *armScratch) []SeedOutcome {
	out = out[:0]
	n, k := k1-k0, len(arms)
	if n <= 0 {
		return out
	}
	sc.seqs = sc.seqs[:0]
	for s := k0; s < k1; s++ {
		seq := generateSeq(cfg, gen, baseSeed+int64(s))
		sc.seqs = append(sc.seqs, seq)
		sc.spans += seqSpan(seq)
	}
	seqs := sc.seqs
	// Policy side first, on its own goroutine: the fleets step the whole
	// batch while this goroutine judges it.
	benefits, errs := make([][]int64, k), make([]error, k)
	done := make(chan struct{})
	go func() {
		for a, alg := range arms {
			benefits[a], errs[a] = alg(cfg, seqs)
			if errs[a] == nil && len(benefits[a]) != len(seqs) {
				errs[a] = fmt.Errorf("fleet alg returned %d benefits for %d sequences", len(benefits[a]), len(seqs))
			}
		}
		close(done)
	}()

	sc.optVals = slices.Grow(sc.optVals[:0], n)[:n]
	sc.judged += int64(n)
	firstElig := -1
	for i := 0; i < n; i++ {
		o := SeedOutcome{Seed: baseSeed + int64(k0+i)}
		optVal, err := j.Judge(cfg, seqs[i])
		switch {
		case err != nil:
			o.Err = fmt.Errorf("offline optimum: %w", err)
		case optVal == 0:
			o.Skipped = true
		default:
			if firstElig < 0 {
				firstElig = i
			}
			sc.optVals[i] = optVal
		}
		for range arms {
			out = append(out, o)
		}
	}
	<-done
	for a := range arms {
		witnessed := false
		for i := 0; i < n; i++ {
			o := &out[i*k+a]
			if o.Err != nil || o.Skipped {
				continue
			}
			if errs[a] == nil {
				fillOutcome(o, sc.optVals[i], benefits[a][i])
				continue
			}
			// The batched call failed: re-run each judged-eligible sequence
			// alone. Per-seed evaluations are deterministic, so this
			// reproduces exactly the error the scalar backends would
			// attribute to that seed.
			bs, err := arms[a](cfg, seqs[i:i+1])
			if err == nil && len(bs) != 1 {
				err = fmt.Errorf("fleet alg returned %d benefits for 1 sequence", len(bs))
			}
			if err != nil {
				o.Err = fmt.Errorf("policy run: %w", err)
				witnessed = true
				continue
			}
			fillOutcome(o, sc.optVals[i], bs[0])
		}
		if errs[a] != nil && !witnessed && firstElig >= 0 {
			out[firstElig*k+a] = SeedOutcome{Seed: baseSeed + int64(k0+firstElig),
				Err: fmt.Errorf("policy run: %w", errs[a])}
		}
	}
	return out
}

// fillOutcome finalizes an eligible seed's outcome from its optimum and
// benefit, reproducing Single's zero-benefit error text.
func fillOutcome(o *SeedOutcome, optVal, benefit int64) {
	if benefit == 0 {
		o.Err = fmt.Errorf("ratio: policy scored 0 against optimum %d", optVal)
		return
	}
	o.Ratio = float64(optVal) / float64(benefit)
}
