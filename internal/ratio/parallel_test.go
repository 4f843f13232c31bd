package ratio

import (
	"context"
	"math"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 5
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	gen := packet.Bernoulli{Load: 1.6}
	seq, err := Run(context.Background(), cfg, alg, ExactUnitCIOQ, gen, 77, 24)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(context.Background(), cfg, alg, ExactUnitCIOQ, gen, 77, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Max != par.Max || seq.Runs != par.Runs || seq.Skipped != par.Skipped {
		t.Errorf("parallel (max=%v runs=%d) != sequential (max=%v runs=%d)",
			par.Max, par.Runs, seq.Max, seq.Runs)
	}
	if math.Abs(seq.Mean-par.Mean) > 1e-12 {
		t.Errorf("means differ: %v vs %v", seq.Mean, par.Mean)
	}
	if seq.WorstSeed != par.WorstSeed {
		t.Errorf("worst seeds differ: %d vs %d", seq.WorstSeed, par.WorstSeed)
	}
}

func TestRunParallelWorkerEdgeCases(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	gen := packet.Bernoulli{Load: 1.2}
	for _, workers := range []int{0, 1, 3, 100} {
		est, err := RunParallel(context.Background(), cfg, alg, ExactUnitCIOQ, gen, 5, 6, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if est.Runs+est.Skipped != 6 {
			t.Errorf("workers=%d: accounted %d of 6 runs", workers, est.Runs+est.Skipped)
		}
	}
}

// TestRunParallelEventDrivenMatchesDense checks the Config.Dense
// plumbing end to end through the ratio harness: per-seed measurements,
// and therefore the aggregate Estimate, are bit-identical between the
// default event-driven engine and the dense opt-out on sparse workloads.
func TestRunParallelEventDrivenMatchesDense(t *testing.T) {
	evCfg := microCfg()
	evCfg.Slots = 12
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} })
	gen := packet.PoissonBurst{OffMean: 8, BurstMean: 2}
	cfg := evCfg
	cfg.Dense = true
	dense, err := RunParallel(context.Background(), cfg, alg, ExactUnitCIOQ, gen, 5, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunParallel(context.Background(), evCfg, alg, ExactUnitCIOQ, gen, 5, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dense.Max != fast.Max || dense.Mean != fast.Mean || dense.Runs != fast.Runs ||
		dense.Skipped != fast.Skipped || dense.WorstSeed != fast.WorstSeed {
		t.Errorf("event-driven ratio estimate diverged:\ndense: %+v\nevent: %+v", dense, fast)
	}
}
