package ratio

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// RunParallel is Run with the per-seed measurements fanned out over a
// worker pool. Each worker gets its own policy instance (via the Alg
// closure), its own judge (via the factory, so per-worker scratch stays
// warm across the worker's whole seed stream) and its own rand.Rand, so
// runs are fully independent; results are merged deterministically
// (sorted by seed), making RunParallel's output bit-identical to Run's
// for the same inputs.
//
// Cancellation is prompt and attribution stays deterministic: when a seed
// fails, sibling workers stop picking up seeds beyond the failed one
// (those can no longer affect the result — the merge reports the lowest
// failing seed) but still evaluate every queued seed below it, so the
// reported (seed, error) pair is exactly Run's. Cancelling ctx abandons
// all remaining seeds and returns ctx's error.
//
// workers <= 0 selects GOMAXPROCS. The speedup is near-linear because
// each measurement is an independent simulation plus an offline solve.
func RunParallel(ctx context.Context, cfg switchsim.Config, alg Alg, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, runs, workers int) (Estimate, error) {
	outs, err := parallelOutcomes(ctx, cfg, alg, judge, gen, baseSeed, 0, runs, workers)
	if err != nil {
		return Estimate{}, err
	}
	return MergeOutcomes(ctx, outs)
}

// parallelOutcomes evaluates seed indices [k0, k1) over a worker pool and
// returns their outcomes in seed order — the worker-pool core shared by
// RunParallel and ParallelChunks. Per-seed outcomes are pure, so the
// result is independent of the worker count.
func parallelOutcomes(ctx context.Context, cfg switchsim.Config, alg Alg, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, k0, k1, workers int) ([]SeedOutcome, error) {
	runs := k1 - k0
	if runs <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		j := judge()
		outs := make([]SeedOutcome, 0, runs)
		for k := k0; k < k1; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o := evalSeed(cfg, alg, j, gen, baseSeed+int64(k))
			outs = append(outs, o)
			if o.Err != nil {
				break // the merge reports it; later seeds can't change the outcome
			}
		}
		return outs, nil
	}

	results := make([]SeedOutcome, runs)
	// errIdx is the smallest seed index known to have failed; seeds above
	// it are moot (the merge reports the lowest failure) and are skipped so
	// siblings wind down promptly instead of running the stream dry.
	errIdx := int64(k1)
	var errMu sync.Mutex
	loadErrIdx := func() int64 {
		errMu.Lock()
		defer errMu.Unlock()
		return errIdx
	}
	var cancelled atomic.Bool
	seedCh := make(chan int, runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := judge()
			for k := range seedCh {
				seed := baseSeed + int64(k)
				if cancelled.Load() || ctx.Err() != nil {
					cancelled.Store(true)
					results[k-k0] = SeedOutcome{Seed: seed, NotRun: true}
					continue
				}
				if int64(k) > loadErrIdx() {
					results[k-k0] = SeedOutcome{Seed: seed, NotRun: true}
					continue
				}
				o := evalSeed(cfg, alg, j, gen, seed)
				results[k-k0] = o
				if o.Err != nil {
					errMu.Lock()
					if int64(k) < errIdx {
						errIdx = int64(k)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for k := k0; k < k1; k++ {
		seedCh <- k
	}
	close(seedCh)
	wg.Wait()
	return results, nil
}
