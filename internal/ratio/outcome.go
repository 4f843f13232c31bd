package ratio

import (
	"context"
	"fmt"
	"math/rand"
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

// generateSeq draws seed's workload with r (a newSeedRand generator),
// reseeded to seed, into dst's storage (packet.GenerateInto); every backend
// calls exactly this, so a seed names the same sequence everywhere
// (including remote workers). The result overwrites dst, so it is valid
// only until the caller draws the next seed into the same storage.
func generateSeq(cfg switchsim.Config, gen packet.Generator, r *rand.Rand, seed int64, dst packet.Sequence) packet.Sequence {
	r.Seed(seed)
	return packet.GenerateInto(dst, gen, r, cfg.Inputs, cfg.Outputs, pickSlots(cfg))
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
	return evalArms(cfg, []FleetAlg{a}, j, gen, baseSeed, k0, k1, out[:0], &armScratch{})
}

// armScratch is the buffers and the seed generator evalArms reuses, plus
// what it has done: the summed arrival spans of the sequences it
// generated and its judge calls. seqs[i] keeps the storage batch position
// i was drawn into, so a warm evaluator draws every seed in place.
type armScratch struct {
	rng           *rand.Rand
	seqs          []packet.Sequence
	optVals       []int64
	spans, judged int64
}

// draw generates seeds [k0, k1) into the kept storage and returns them. A
// position that has no storage yet gets room for its predecessor's length
// plus an eighth, so a cold batch does not grow a slice per seed either.
func (sc *armScratch) draw(cfg switchsim.Config, gen packet.Generator, baseSeed int64, k0, k1 int) []packet.Sequence {
	if sc.rng == nil {
		sc.rng = newSeedRand()
	}
	n := k1 - k0
	if len(sc.seqs) < n {
		sc.seqs = slices.Grow(sc.seqs, n-len(sc.seqs))[:n]
	}
	seqs := sc.seqs[:n]
	for i := range seqs {
		if i > 0 && cap(seqs[i]) == 0 {
			m := len(seqs[i-1])
			seqs[i] = make(packet.Sequence, 0, m+m/8)
		}
		seqs[i] = generateSeq(cfg, gen, sc.rng, baseSeed+int64(k0+i), seqs[i])
		sc.spans += seqSpan(seqs[i])
	}
	return seqs
}

// evalArms is EvalChunk over k arms sharing one generated sequence and one
// judge call per seed: it appends k outcomes per seed to out, seed-major,
// and arm a's outcomes are exactly EvalChunk's with that arm alone. The
// arms step one after another on the side goroutine. The sequences live in
// sc and are overwritten by the next call.
func evalArms(cfg switchsim.Config, arms []FleetAlg, j Judge, gen packet.Generator,
	baseSeed int64, k0, k1 int, out []SeedOutcome, sc *armScratch) []SeedOutcome {
	n, k := k1-k0, len(arms)
	if n <= 0 {
		return out
	}
	seqs := sc.draw(cfg, gen, baseSeed, k0, k1)
	base := len(out)
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
			o := &out[base+i*k+a]
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
			out[base+firstElig*k+a] = SeedOutcome{Seed: baseSeed + int64(k0+firstElig),
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
