package ratio

import (
	"context"
	"fmt"
	"math/rand"

	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// Judge computes an offline benchmark value for a sequence: the exact
// optimum or a proven upper bound. Implementations may carry reusable
// scratch between calls — the upper-bound judges keep their epoch solver
// and partition buckets warm across a whole seed stream — and therefore
// need not be safe for concurrent use; mint one per goroutine via a
// JudgeFactory. Judging is deterministic: every judge returns the same
// value for the same (cfg, seq) regardless of call history. seq is valid
// only for the call: evaluators overwrite it with the next seed.
type Judge interface {
	Judge(cfg switchsim.Config, seq packet.Sequence) (int64, error)
}

// JudgeFactory mints independent judges. Every evaluator mints one for
// its whole seed stream and the driver mints one evaluator per worker, so
// each worker's judge reuses its scratch across everything that worker
// measures.
type JudgeFactory func() Judge

// JudgeFunc adapts a stateless judging function to the Judge interface.
type JudgeFunc func(cfg switchsim.Config, seq packet.Sequence) (int64, error)

// Judge implements the Judge interface.
func (f JudgeFunc) Judge(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return f(cfg, seq)
}

// ExactUnitCIOQ mints the exact unit-value CIOQ DP judge.
func ExactUnitCIOQ() Judge { return JudgeFunc(offline.ExactUnitCIOQ) }

// ExactUnitCrossbar mints the exact unit-value crossbar DP judge.
func ExactUnitCrossbar() Judge { return JudgeFunc(offline.ExactUnitCrossbar) }

// ExactWeightedCIOQ mints the exact weighted micro-search judge.
func ExactWeightedCIOQ() Judge { return JudgeFunc(offline.ExactWeightedCIOQ) }

// ExactWeightedCrossbar mints the exact weighted crossbar micro-search
// judge.
func ExactWeightedCrossbar() Judge { return JudgeFunc(offline.ExactWeightedCrossbar) }

// UpperBoundCIOQ mints a judge for the combined (output-side and
// input-side) relaxation of CIOQ geometries, holding a reusable
// offline.UpperBoundSolver: repeated judging allocates nothing in steady
// state.
func UpperBoundCIOQ() Judge { return &boundJudge{} }

// UpperBoundCrossbar mints the combined-relaxation judge for crossbar
// geometries.
func UpperBoundCrossbar() Judge { return &boundJudge{crossbar: true} }

// boundJudge is the reusable upper-bound judge behind UpperBoundCIOQ and
// UpperBoundCrossbar.
type boundJudge struct {
	crossbar bool
	s        offline.UpperBoundSolver
}

func (b *boundJudge) Judge(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return b.s.CombinedUpperBound(cfg, seq, b.crossbar)
}

// Alg runs a policy on a sequence and returns its benefit. The sequence is
// valid only for the call: evaluators overwrite it with the next seed.
type Alg func(cfg switchsim.Config, seq packet.Sequence) (int64, error)

// CIOQAlg adapts a CIOQ policy factory to the Alg signature. A factory is
// needed (rather than a policy instance) so concurrent or repeated
// evaluations never share mutable policy state.
func CIOQAlg(factory func() switchsim.CIOQPolicy) Alg {
	return func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
		res, err := switchsim.RunCIOQ(cfg, factory(), seq)
		if err != nil {
			return 0, err
		}
		return res.M.Benefit, nil
	}
}

// CrossbarAlg adapts a crossbar policy factory to the Alg signature.
func CrossbarAlg(factory func() switchsim.CrossbarPolicy) Alg {
	return func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
		res, err := switchsim.RunCrossbar(cfg, factory(), seq)
		if err != nil {
			return 0, err
		}
		return res.M.Benefit, nil
	}
}

// Estimate aggregates ratio measurements over many runs.
type Estimate struct {
	Max       float64
	Mean      float64
	CI95      float64
	Runs      int
	Skipped   int // runs where both OPT and ALG were zero
	WorstSeed int64
	Samples   []float64
}

// String renders a compact summary.
func (e Estimate) String() string {
	return fmt.Sprintf("ratio max=%.4f mean=%.4f±%.4f over %d runs (worst seed %d)",
		e.Max, e.Mean, e.CI95, e.Runs, e.WorstSeed)
}

// HalfWidth returns the Student-t CI half-width on the mean ratio at the
// given confidence level, computed from the retained per-seed samples.
// Unlike the CI95 field (a 1.96-sigma normal approximation kept for
// backward compatibility), this uses the exact t critical value for the
// observed degrees of freedom, so it is safe to stop on at small n.
func (e Estimate) HalfWidth(confidence float64) float64 {
	var acc stats.Estimator
	for _, s := range e.Samples {
		acc.Add(s)
	}
	return acc.HalfWidth(confidence)
}

// TailQuantiles returns the given quantiles (in [0,1]) of the per-seed
// ratio samples — the worst-seed tail view of the marginal distribution
// that paired comparisons report alongside mean differences.
func (e Estimate) TailQuantiles(qs ...float64) []float64 {
	return stats.Quantiles(e.Samples, qs...)
}

// Run measures OPT/ALG over `runs` seeded workloads drawn from gen, as one
// chunk of ScalarChunks on the caller's goroutine: one judge serves the
// whole stream. Sequences where OPT = 0 are skipped; an ALG of 0 with
// positive OPT is an error (see the package invariants). Cancelling ctx
// stops the stream between seeds and returns the context's error.
func Run(ctx context.Context, cfg switchsim.Config, alg Alg, judge JudgeFactory, gen packet.Generator, baseSeed int64, runs int) (Estimate, error) {
	est, _, err := merged(ctx, plan{runs: runs, chunk: runs, workers: 1,
		mint: func() ChunkEvaluator { return ScalarChunks(cfg, alg, judge, gen, baseSeed) }})
	return est, err
}

// RunParallel is Run with the seeds dealt one at a time to `workers`
// workers (<= 0 selects GOMAXPROCS), each evaluating through its own
// ScalarChunks and so its own judge. The estimate, and the (seed, error)
// pair of a failure, are bit-identical to Run's; cancelling ctx abandons
// the remaining seeds and returns ctx's error.
func RunParallel(ctx context.Context, cfg switchsim.Config, alg Alg, judge JudgeFactory, gen packet.Generator,
	baseSeed int64, runs, workers int) (Estimate, error) {
	est, _, err := merged(ctx, plan{runs: runs, chunk: 1, workers: workers,
		mint: func() ChunkEvaluator { return ScalarChunks(cfg, alg, judge, gen, baseSeed) }})
	return est, err
}

// newSeedRand is the one way seeds become RNGs: each worker holds one
// rng.New generator and generateSeq reseeds it in place for every seed,
// so every backend derives a seed's workload from exactly
// rand.New(rand.NewSource(seed))'s stream without a per-seed allocation.
func newSeedRand() *rand.Rand { return rng.New(0) }

// Single measures OPT/ALG on one sequence with an already-minted judge
// (hot loops hold one judge across many Single calls). ok=false when OPT
// is zero.
func Single(cfg switchsim.Config, alg Alg, judge Judge, seq packet.Sequence) (float64, bool, error) {
	optVal, err := judge.Judge(cfg, seq)
	if err != nil {
		return 0, false, fmt.Errorf("offline optimum: %w", err)
	}
	if optVal == 0 {
		return 0, false, nil
	}
	algVal, err := alg(cfg, seq)
	if err != nil {
		return 0, false, fmt.Errorf("policy run: %w", err)
	}
	if algVal == 0 {
		return 0, false, fmt.Errorf("ratio: policy scored 0 against optimum %d", optVal)
	}
	return float64(optVal) / float64(algVal), true, nil
}

// pickSlots caps the generator horizon: when the config pins Slots use it,
// otherwise default to a modest workload window (the simulator itself will
// extend the run until drained).
func pickSlots(cfg switchsim.Config) int {
	if cfg.Slots > 0 {
		return cfg.Slots
	}
	return 16
}
