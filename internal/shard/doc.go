// Package shard is the crash-tolerant sharded experiment service: it
// distributes Monte-Carlo ratio estimations and adversary hunts over a
// fleet of worker processes while guaranteeing results that are
// byte-identical to a single-process run, no matter what fails.
//
// The package has three tiers:
//
//   - A versioned, checksummed wire format (frame.go, spec.go): chunk
//     specs name a unit of work — switch config, policy and judge registry
//     specs, generator parameters, and a seed or restart range — in
//     canonical JSON inside CRC64-framed messages. Specs are pure data, so
//     a chunk executes identically wherever and whenever it runs; the
//     encoded spec doubles as the chunk's checkpoint key.
//
//   - A worker (worker.go, Executor in exec.go): qswitchctl -serve
//     serves chunk specs over stdio or TCP, heartbeating while it computes
//     and caching resolved policy fleets and judges per spec across its
//     chunk stream. Fault injection (its -chaos flag,
//     internal/shard/faultinject) can deterministically kill, hang, delay
//     or bit-corrupt the worker per request.
//
//   - A coordinator (coordinator.go): shards work over the fleet with
//     per-chunk deadlines and heartbeat supervision, retries transport
//     failures with bounded exponential backoff (chunks are deterministic,
//     so retries are always safe), respawns or excludes crashed workers,
//     falls back to in-process execution when no worker is reachable, and
//     appends completed chunks to a crash-safe fsync'd checkpoint log so a
//     killed coordinator resumes without recomputing. The log
//     group-commits: chunks completing together share one write and one
//     fsync, and none is reported done before an fsync covers its record.
//     Corrupted responses never reach a merge: the frame CRC rejects them
//     and the chunk is retried.
//
// Determinism is the load-bearing property: per-seed outcomes are pure
// functions of the chunk spec, merges are seed-ordered (ratio.RunSharded)
// or restart-ordered (adversary.MergeHunts), and error attribution is
// pinned to the lowest failing seed/chunk. Faults can therefore change
// only the execution schedule — never the result.
package shard
