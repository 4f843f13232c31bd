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
// across calls and is not safe for concurrent use. The sequences are valid
// only for the call: evaluators overwrite them with the next batch. The
// returned benefits may likewise live in storage the FleetAlg keeps, valid
// until its next call.
type FleetAlg func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error)

// FleetAlgFactory mints independent FleetAlgs — a fleet evaluator calls it
// once per lane it mints (NewLanes), so each lane's fleet storage is
// constructed once and reused across its whole chunk stream.
type FleetAlgFactory func() FleetAlg

// CIOQFleetAlg adapts a CIOQ policy factory to the FleetAlgFactory
// signature: each minted FleetAlg owns a fleet.CIOQRunner (columnar when
// the family is batchable, per-instance scalar otherwise — either way
// bit-identical to CIOQAlg) whose storage survives across batches.
func CIOQFleetAlg(factory func() switchsim.CIOQPolicy) FleetAlgFactory {
	return func() FleetAlg { return runnerAlg(fleet.NewCIOQRunner(factory)) }
}

// CrossbarFleetAlg adapts a crossbar policy factory to the
// FleetAlgFactory signature via fleet.CrossbarRunner.
func CrossbarFleetAlg(factory func() switchsim.CrossbarPolicy) FleetAlgFactory {
	return func() FleetAlg { return runnerAlg(fleet.NewCrossbarRunner(factory)) }
}

// batchRunner is the batch call fleet.CIOQRunner and fleet.CrossbarRunner
// share.
type batchRunner interface {
	Run(cfg switchsim.Config, seqs []packet.Sequence) ([]*switchsim.Result, error)
}

// runnerAlg is both adapters' one body: it runs a batch on r and reports
// each result's benefit in a slice it keeps across calls.
func runnerAlg(r batchRunner) FleetAlg {
	var out []int64
	return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
		rs, err := r.Run(cfg, seqs)
		if err != nil {
			return nil, err
		}
		out = out[:0]
		for _, res := range rs {
			out = append(out, res.M.Benefit)
		}
		return out, nil
	}
}

// RunFleet is RunParallel with the policy side batched: seeds are dealt in
// chunks of `batch` sequences (<= 0 selects 64) to `workers` workers (<= 0
// selects GOMAXPROCS), each evaluating through its own FleetChunks — two
// lanes per worker, each with its own FleetAlg and Judge, that split every
// batch between them. The estimate is byte-identical to Run's for the same
// inputs, regardless of workers or batch size.
func RunFleet(ctx context.Context, cfg switchsim.Config, alg FleetAlgFactory, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, runs, workers, batch int) (Estimate, error) {
	if batch <= 0 {
		batch = 64
	}
	est, _, err := merged(ctx, plan{runs: runs, chunk: batch, workers: workers,
		mint: func() ChunkEvaluator { return FleetChunks(cfg, alg, judge, gen, baseSeed, batch) }})
	return est, err
}
