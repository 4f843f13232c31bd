package ratio

import (
	"context"
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// ChunkRequest names one seed-range chunk of a ratio estimation in a form
// that can cross a process boundary: the policy and judge are registry
// spec strings (resolved by the shard worker's registry — see
// internal/shard) rather than closures. K0/K1 bound the seed indices
// [K0, K1) relative to BaseSeed.
type ChunkRequest struct {
	// Cfg is the switch geometry and horizon.
	Cfg switchsim.Config
	// Crossbar selects the buffered-crossbar model instead of CIOQ; the
	// policy and judge specs must agree with it.
	Crossbar bool
	// Policy is the policy spec string, e.g. "gm" or "pg(beta=2.41)".
	Policy string
	// Judge is the judge spec string: "exactunit", "exactweighted" or
	// "upperbound" (the geometry comes from Crossbar).
	Judge string
	// Gen draws each seed's workload. The shard service serializes it; an
	// unsupported generator fails the chunk with a clear error.
	Gen packet.Generator
	// BaseSeed is the estimation's base seed; seed k is BaseSeed + k.
	BaseSeed int64
	// K0 and K1 delimit the chunk's seed indices [K0, K1).
	K0, K1 int
}

// ChunkService executes ratio chunks, typically out of process with
// retries, checkpointing and fault tolerance (shard.Coordinator is the
// canonical implementation). RatioChunk returns one outcome per seed in
// [req.K0, req.K1), in seed order; the error return is reserved for
// infrastructure failures (no worker could run the chunk), while
// deterministic per-seed evaluation failures travel inside the outcomes
// so they are attributed to their exact seed and never retried.
type ChunkService interface {
	RatioChunk(ctx context.Context, req ChunkRequest) ([]SeedOutcome, error)
}

// RunSharded is Run with the seeds cut into chunks of `chunk` seeds (<= 0
// selects 16), all in flight at once through ShardedChunks — on
// out-of-process workers when svc is a shard coordinator. The Estimate is
// byte-identical to Run's regardless of chunk size, worker failures or
// checkpoint resumption; req.K0/K1 are overwritten per chunk. A chunk the
// service fails cancels the rest, and the lowest such chunk's error is
// reported prefixed "shard chunk N:".
func RunSharded(ctx context.Context, svc ChunkService, req ChunkRequest, runs, chunk int) (Estimate, error) {
	eval := ShardedChunks(svc, req)
	est, _, err := merged(ctx, plan{runs: runs, chunk: chunk, workers: max(runs, 1),
		mint: func() ChunkEvaluator { return eval },
		wrap: func(c int, err error) error { return fmt.Errorf("shard chunk %d: %w", c, err) }})
	return est, err
}
