// Package ratio estimates empirical competitive ratios: it runs a policy
// and an offline optimum (exact solver where tractable, upper bound
// otherwise) over many seeded workloads and aggregates max/mean ratios.
// This is the measurement core behind experiments E1–E4 and E8.
//
// # Invariants
//
//   - Measurements are deterministic functions of (config, generator,
//     base seed): seed k's sequence is drawn from its own rand source, so
//     RunParallel distributes seeds over workers and still produces an
//     Estimate bit-identical to the sequential Run.
//   - Policy instances are created per evaluation through the Alg
//     factory, never shared, so concurrent or repeated evaluations cannot
//     leak mutable policy state.
//   - Judges are minted per worker through a JudgeFactory and reused
//     across that worker's whole seed stream: judging is deterministic
//     (same value for the same sequence regardless of call history), so
//     scratch reuse never changes an Estimate, only wall-clock. The same
//     holds for the per-worker fleets minted by a FleetAlgFactory, and
//     for RunFleet overlapping each chunk's judging with its fleet
//     stepping.
//   - The simulation engine is whatever the caller's switchsim.Config
//     selects — event-driven by default, dense via Config.Dense — and the
//     measured ratios are identical either way; only wall-clock changes.
//   - A zero optimum skips the sample (the ratio is vacuous); a zero
//     policy benefit against a positive optimum is an error, not an
//     infinite sample, since none of the paper's algorithms can score
//     zero against a positive optimum.
//
// # Sequential stopping
//
// RunSequential replaces the fixed seed budget with a precision target:
// it issues seed chunks through a ChunkEvaluator (ScalarChunks,
// ParallelChunks, FleetChunks or ShardedChunks wrap the four engines)
// and stops at the first chunk boundary where the Student-t CI
// half-width of the mean ratio clears a stats.Target. Because outcomes
// are pure per-seed values merged in seed order and the stopping rule
// only inspects seed-ordered prefixes, the stopped estimate is a
// deterministic function of (base seed, chunk size) — identical across
// backends — and a disabled target reproduces Run byte-for-byte at any
// chunk size (pinned by FuzzSequentialMergeIdentity).
//
// # Paired fleets
//
// RunPaired compares k policies with common random numbers: every
// policy steps the same seeded arrival batches, and each seed's offline
// optimum is solved once and shared. Per-seed ratio differences cancel
// the between-workload variance, so the CI on a policy-vs-policy
// difference shrinks far faster than with independent seed streams
// (≥5× fewer switch-slots to the same target on the workload of the root
// BenchmarkPairedDiffCIOQ pair).
// Marginal estimates stay byte-identical to an independent Run of each
// policy over the same seeds; skip decisions depend only on the judge,
// so the per-seed sample streams of all k policies stay aligned and
// PairedDiff's fold is sound.
package ratio
