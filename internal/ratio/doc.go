// Package ratio estimates empirical competitive ratios: it runs a policy
// and an offline optimum (exact solver where tractable, upper bound
// otherwise) over many seeded workloads and aggregates max/mean ratios.
// This is the measurement core behind experiments E1–E4 and E8.
//
// # One driver
//
// Every entry point is a wrapper over one unexported driver. It issues
// seed chunks [0,c), [c,2c), ... in order to ChunkEvaluators minted one
// per worker — FleetChunks (ScalarChunks is its batch of one) and
// ShardedChunks wrap the in-process lanes and out-of-process workers —
// and folds their per-seed SeedOutcomes in seed order. It stops issuing
// chunks past the lowest chunk with a failed seed, past a cancelled
// context or an evaluator error, and past the first seed-ordered prefix
// that meets a precision target; chunks evaluated past the stop are
// discarded. The caller's goroutine is always one of the workers.
//
//   - Run: ScalarChunks, all seeds in one chunk, one worker.
//   - RunParallel: ScalarChunks, one seed per chunk, a worker pool.
//   - RunFleet: FleetChunks, one fleet batch per chunk, a worker pool.
//   - RunSharded: ShardedChunks, every chunk in flight at once.
//   - RunSequential: the caller's evaluator and target, one worker.
//   - RunSequentialPool: RunSequential on GOMAXPROCS workers, one
//     evaluator minted per worker.
//   - RunPaired: k fleets per lane sharing each seed's sequence and
//     judge call, one worker; the target binds the paired differences.
//
// # Invariants
//
//   - Measurements are deterministic functions of (config, generator,
//     base seed): seed k's sequence is drawn from its own rand source and
//     outcomes merge in seed order (MergeOutcomes), so every entry point
//     yields a bit-identical Estimate at any worker count, chunk or batch
//     size, and attributes a failure to the same seed with the same text.
//   - Stopping inspects only seed-ordered prefixes at chunk boundaries,
//     so a stopped estimate is a deterministic function of (base seed,
//     chunk size) on every backend, and a disabled target reproduces the
//     fixed-N estimate at any chunk size (FuzzSequentialMergeIdentity).
//   - Policy instances are created per evaluation through the Alg
//     factory, never shared, so concurrent or repeated evaluations cannot
//     leak mutable policy state.
//   - Each evaluator holds one judge (and fleet) per lane for its whole
//     seed stream. Its two lanes step, then judge, the two halves of every
//     batch concurrently; a batch of one runs on lane 0 alone, and lane 1
//     is minted only when a batch first splits. Judging is
//     deterministic (same value for the same sequence regardless of call
//     history), and a lane's outcomes join the other's in seed order, so
//     scratch reuse and the lane split never change an Estimate, only
//     wall-clock.
//   - A sequence passed to a Judge, an Alg or a FleetAlg is valid only
//     for that call. Evaluators draw every seed into storage they keep
//     (packet.GenerateInto), so the next seed overwrites it: an
//     implementation that needs packets after it returns must copy them.
//   - The simulation engine is whatever the caller's switchsim.Config
//     selects — event-driven by default, dense via Config.Dense — and the
//     measured ratios are identical either way.
//   - A zero optimum skips the sample (the ratio is vacuous); a zero
//     policy benefit against a positive optimum is an error, not an
//     infinite sample, since none of the paper's algorithms can score
//     zero against a positive optimum.
//
// # Paired fleets
//
// RunPaired's per-seed ratio differences cancel the between-workload
// variance, so the CI on a policy-vs-policy difference shrinks far faster
// than with independent seed streams (≥5× fewer switch-slots to the same
// target on the workload of the root BenchmarkPairedDiffCIOQ pair).
// Marginal estimates stay byte-identical to an independent Run of each
// policy; skip decisions depend only on the judge, so the k sample
// streams stay aligned and PairedDiff's fold is sound.
package ratio
