package ratio

import (
	"context"

	"qswitch/internal/fleet"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// FleetAlg evaluates a policy family over a whole batch of sequences at
// once, returning one benefit per sequence in order. It is the batched
// counterpart of Alg: the columnar fleet engine amortizes one policy loop
// (and one switch construction) across the batch, and is bit-identical to
// the scalar engines, so estimates built on it are byte-identical to
// Run/RunParallel's. A FleetAlg may hold reusable state (a fleet.Runner)
// across calls and is not safe for concurrent use.
type FleetAlg func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error)

// FleetAlgFactory mints independent FleetAlgs — RunFleet calls it once per
// worker, so each worker's fleet storage is constructed once and reused
// across its whole chunk stream.
type FleetAlgFactory func() FleetAlg

// CIOQFleetAlg adapts a CIOQ policy factory to the FleetAlgFactory
// signature: each minted FleetAlg owns a fleet.CIOQRunner (columnar when
// the family is batchable, per-instance scalar otherwise — either way
// bit-identical to CIOQAlg) whose storage survives across batches.
func CIOQFleetAlg(factory func() switchsim.CIOQPolicy) FleetAlgFactory {
	return func() FleetAlg {
		r := fleet.NewCIOQRunner(factory)
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			rs, err := r.Run(cfg, seqs)
			if err != nil {
				return nil, err
			}
			out := make([]int64, len(rs))
			for k, res := range rs {
				out[k] = res.M.Benefit
			}
			return out, nil
		}
	}
}

// CrossbarFleetAlg adapts a crossbar policy factory to the
// FleetAlgFactory signature via fleet.CrossbarRunner.
func CrossbarFleetAlg(factory func() switchsim.CrossbarPolicy) FleetAlgFactory {
	return func() FleetAlg {
		r := fleet.NewCrossbarRunner(factory)
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			rs, err := r.Run(cfg, seqs)
			if err != nil {
				return nil, err
			}
			out := make([]int64, len(rs))
			for k, res := range rs {
				out[k] = res.M.Benefit
			}
			return out, nil
		}
	}
}

// RunFleet is RunParallel with the policy side batched: seeds are dealt in
// chunks of `batch` sequences (<= 0 selects 64) to `workers` workers (<= 0
// selects GOMAXPROCS), each evaluating through its own FleetChunks — one
// FleetAlg and one Judge per worker. The estimate is byte-identical to
// Run's for the same inputs, regardless of workers or batch size.
func RunFleet(ctx context.Context, cfg switchsim.Config, alg FleetAlgFactory, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, runs, workers, batch int) (Estimate, error) {
	if batch <= 0 {
		batch = 64
	}
	est, _, err := merged(ctx, plan{runs: runs, chunk: batch, workers: workers,
		mint: func() ChunkEvaluator { return FleetChunks(cfg, alg, judge, gen, baseSeed, batch) }})
	return est, err
}
