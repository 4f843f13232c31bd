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

// EvalChunk evaluates seeds [k0, k1) as one batch through l's two lanes,
// appending k outcomes per seed (one per arm of l, seed-major) to out,
// which is reset first. The batch splits at k0 + ⌈n/2⌉: the upper half
// runs on a side goroutine through lane 1 (minted at the first split)
// while the caller's goroutine runs the lower half through lane 0, and
// the halves' outcomes join in seed order.
//
// Judge errors are recorded at their own seed, and when a lane's batched
// policy call fails that lane re-runs each eligible sequence alone to
// locate the seeds that actually fail (per-seed results are deterministic,
// so the re-run reproduces the error at its true seed). Only if no seed of
// the batch fails alone — a batch-level fault with no per-seed witness — is
// the fault attributed to the batch's first eligible seed. That is decided
// once both lanes have returned, over the whole batch, with lane 0's error
// if its call failed and lane 1's otherwise. A lane calls each FleetAlg on
// its half, so a fault that needs more sequences than a half holds does not
// occur.
func EvalChunk(cfg switchsim.Config, l *Lanes, gen packet.Generator,
	baseSeed int64, k0, k1 int, out []SeedOutcome) []SeedOutcome {
	return l.eval(cfg, gen, baseSeed, k0, k1, out[:0])
}

// Lanes is one fleet evaluator's two lanes. Each lane holds its own arms
// (one FleetAlg per policy), its own judge and the storage it draws seeds
// into, all kept across batches, so a warm evaluator allocates nothing
// that scales with the workload. A Lanes is not safe for concurrent use.
type Lanes struct {
	lane   [2]lane
	minted int // lanes minted so far: lane 1 waits for the first split batch
	judge  JudgeFactory
	algs   []FleetAlgFactory
}

// NewLanes returns the lanes of one evaluator and mints lane 0; lane 1 is
// minted when a batch first splits, so an evaluator whose batches never
// split (batch one) builds one judge and one FleetAlg per factory. Each
// lane gets its own judge and one FleetAlg from each factory, its arms in
// factory order.
func NewLanes(judge JudgeFactory, algs ...FleetAlgFactory) *Lanes {
	l := &Lanes{judge: judge, algs: algs}
	l.mint()
	return l
}

// mint fills the next unminted lane.
func (l *Lanes) mint() {
	ln, k := &l.lane[l.minted], len(l.algs)
	for _, a := range l.algs {
		ln.arms = append(ln.arms, a())
	}
	ln.j = l.judge()
	ln.sc.benefits, ln.sc.errs, ln.sc.witnessed = make([][]int64, k), make([]error, k), make([]bool, k)
	l.minted++
}

// tally sums what both lanes have done: the arrival spans of the
// sequences they drew and their judge calls (none for an unminted lane).
func (l *Lanes) tally() (spans, judged int64) {
	for i := range l.lane {
		spans += l.lane[i].sc.spans
		judged += l.lane[i].sc.judged
	}
	return spans, judged
}

// eval is EvalChunk without the reset: it appends the batch [b0, b1)'s
// outcomes to out.
func (l *Lanes) eval(cfg switchsim.Config, gen packet.Generator, baseSeed int64, b0, b1 int, out []SeedOutcome) []SeedOutcome {
	n := b1 - b0
	if n <= 0 {
		return out
	}
	mid := b0 + (n+1)/2
	ran := l.lane[:1]
	var done chan struct{}
	if mid < b1 {
		if l.minted < 2 {
			l.mint()
		}
		ran = l.lane[:2]
		l1 := &l.lane[1]
		done = make(chan struct{})
		go func() {
			l1.sc.out = l1.eval(cfg, gen, baseSeed, mid, b1, l1.sc.out[:0])
			close(done)
		}()
	}
	base := len(out)
	out = l.lane[0].eval(cfg, gen, baseSeed, b0, mid, out)
	if done != nil {
		<-done
		out = append(out, l.lane[1].sc.out...)
	}
	// A batch-level fault no seed witnessed lands on the batch's first
	// eligible seed, searched across both halves.
	k := len(l.lane[0].arms)
	for a := 0; a < k; a++ {
		var err error
		first, witnessed := -1, false
		for i := range ran {
			sc := &ran[i].sc
			if err == nil {
				err = sc.errs[a]
			}
			witnessed = witnessed || sc.witnessed[a]
			if first < 0 && sc.firstElig >= 0 {
				first = i*(mid-b0) + sc.firstElig
			}
		}
		if err != nil && !witnessed && first >= 0 {
			out[base+first*k+a] = SeedOutcome{Seed: baseSeed + int64(b0+first),
				Err: fmt.Errorf("policy run: %w", err)}
		}
	}
	return out
}

// lane is one half of an evaluator: its arms, its judge and its scratch.
type lane struct {
	arms []FleetAlg
	j    Judge
	sc   armScratch
}

// armScratch is the buffers and the seed generator a lane reuses, what
// its last batch left for the pair to decide, and what it has done: the
// summed arrival spans of the sequences it generated and its judge calls.
// seqs[i] keeps the storage batch position i was drawn into, so a warm
// lane draws every seed in place.
type armScratch struct {
	rng      *rand.Rand
	seqs     []packet.Sequence
	optVals  []int64
	benefits [][]int64
	// errs[a] is arm a's batched call error in the last batch, and
	// witnessed[a] reports whether a seed's own re-run failed in it.
	errs      []error
	witnessed []bool
	// firstElig is the last batch's first seed the judge found eligible,
	// relative to the batch, or -1.
	firstElig int
	// out holds lane 1's outcomes until they join lane 0's.
	out           []SeedOutcome
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

// eval is a lane's serial body over seeds [k0, k1): it draws them, steps
// them on every arm's fleet, judges them, and appends k outcomes per seed
// to out, seed-major, arm a's being exactly what that arm alone would
// get. An arm whose batched call failed re-runs each eligible sequence
// alone; whether the fault lands on a seed no re-run failed on is the
// pair's decision (Lanes.eval), so the lane only records it in sc. The
// sequences live in sc and are overwritten by the next call.
func (ln *lane) eval(cfg switchsim.Config, gen packet.Generator, baseSeed int64, k0, k1 int, out []SeedOutcome) []SeedOutcome {
	sc, k := &ln.sc, len(ln.arms)
	seqs := sc.draw(cfg, gen, baseSeed, k0, k1)
	n := len(seqs)
	for a, alg := range ln.arms {
		sc.benefits[a], sc.errs[a] = alg(cfg, seqs)
		if sc.errs[a] == nil && len(sc.benefits[a]) != n {
			sc.errs[a] = fmt.Errorf("fleet alg returned %d benefits for %d sequences", len(sc.benefits[a]), n)
		}
		sc.witnessed[a] = false
	}

	sc.optVals = slices.Grow(sc.optVals[:0], n)[:n]
	sc.judged += int64(n)
	sc.firstElig = -1
	base := len(out)
	for i, seq := range seqs {
		o := SeedOutcome{Seed: baseSeed + int64(k0+i)}
		optVal, err := ln.j.Judge(cfg, seq)
		switch {
		case err != nil:
			o.Err = fmt.Errorf("offline optimum: %w", err)
		case optVal == 0:
			o.Skipped = true
		default:
			if sc.firstElig < 0 {
				sc.firstElig = i
			}
			sc.optVals[i] = optVal
		}
		for range ln.arms {
			out = append(out, o)
		}
	}
	for a, alg := range ln.arms {
		for i := 0; i < n; i++ {
			o := &out[base+i*k+a]
			if o.Err != nil || o.Skipped {
				continue
			}
			if sc.errs[a] == nil {
				fillOutcome(o, sc.optVals[i], sc.benefits[a][i])
				continue
			}
			// The batched call failed: re-run each judged-eligible sequence
			// alone. Per-seed evaluations are deterministic, so this
			// reproduces exactly the error the scalar backends would
			// attribute to that seed.
			bs, err := alg(cfg, seqs[i:i+1])
			if err == nil && len(bs) != 1 {
				err = fmt.Errorf("fleet alg returned %d benefits for 1 sequence", len(bs))
			}
			if err != nil {
				o.Err = fmt.Errorf("policy run: %w", err)
				sc.witnessed[a] = true
				continue
			}
			fillOutcome(o, sc.optVals[i], bs[0])
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
