package ratio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

func gmPair() []PairedPolicy {
	return []PairedPolicy{
		{Name: "gm", Alg: CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })},
		{Name: "gm-colmajor", Alg: CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} })},
	}
}

// TestPairedMarginalsMatchIndependentRun: each marginal estimate of a
// paired run is byte-identical to an independent Run of that policy over
// the same seeds — at any batch/chunk size, including workloads with
// skipped (OPT = 0) seeds.
func TestPairedMarginalsMatchIndependentRun(t *testing.T) {
	ctx := context.Background()
	algs := []Alg{
		CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
		CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} }),
	}
	for _, tc := range []struct {
		name string
		gen  packet.Generator
	}{
		{"dense", packet.Bernoulli{Load: 1.5}},
		{"sparse-with-skips", packet.Bernoulli{Load: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := microCfg()
			cfg.Slots = 4
			const baseSeed, runs = 21, 14
			for _, batch := range []int{1, 3, 32} {
				pe, err := RunPaired(ctx, cfg, gmPair(), ExactUnitCIOQ, tc.gen, baseSeed,
					PairedOptions{Batch: batch, MaxRuns: runs})
				if err != nil {
					t.Fatalf("RunPaired batch=%d: %v", batch, err)
				}
				if pe.Seeds != runs {
					t.Errorf("batch=%d: issued %d seeds, want %d", batch, pe.Seeds, runs)
				}
				for p, alg := range algs {
					want, err := Run(ctx, cfg, alg, ExactUnitCIOQ, tc.gen, baseSeed, runs)
					if err != nil {
						t.Fatalf("Run policy %d: %v", p, err)
					}
					if !reflect.DeepEqual(pe.Marginals[p], want) {
						t.Errorf("batch=%d policy %q: marginal differs from Run:\n got %+v\nwant %+v",
							batch, pe.Names[p], pe.Marginals[p], want)
					}
				}
			}
		})
	}
}

// TestPairedDiffMatchesPostHoc: the engine's Diffs are exactly the
// PairedDiff fold over its merged marginals, so post-hoc pairing of
// independently measured estimates gives identical numbers.
func TestPairedDiffMatchesPostHoc(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.5}
	pe, err := RunPaired(context.Background(), cfg, gmPair(), ExactUnitCIOQ, gen, 5,
		PairedOptions{MaxRuns: 16})
	if err != nil {
		t.Fatalf("RunPaired: %v", err)
	}
	want, err := PairedDiff(pe.Marginals[0], pe.Marginals[1], 0.95)
	if err != nil {
		t.Fatalf("PairedDiff: %v", err)
	}
	want.Name = "gm-colmajor-gm"
	if len(pe.Diffs) != 1 || !reflect.DeepEqual(pe.Diffs[0], want) {
		t.Errorf("Diffs = %+v, want [%+v]", pe.Diffs, want)
	}
}

// TestPairedDiffRejectsMisalignedStreams: PairedDiff refuses estimates
// whose sample counts differ — they cannot be seed-aligned.
func TestPairedDiffRejectsMisalignedStreams(t *testing.T) {
	a := Estimate{Runs: 3, Samples: []float64{1, 2, 3}}
	b := Estimate{Runs: 2, Samples: []float64{1, 2}}
	if _, err := PairedDiff(a, b, 0.95); err == nil {
		t.Error("want error for misaligned sample counts")
	}
}

// TestPairedJudgeOncePerSeed: the offline optimum is solved once per
// seed, shared across all policies — the other half of the paired
// engine's savings.
func TestPairedJudgeOncePerSeed(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.5}
	var calls atomic.Int64
	countingJudge := func() Judge {
		inner := ExactUnitCIOQ()
		return JudgeFunc(func(c switchsim.Config, seq packet.Sequence) (int64, error) {
			calls.Add(1)
			return inner.Judge(c, seq)
		})
	}
	const runs = 12
	pe, err := RunPaired(context.Background(), cfg, gmPair(), countingJudge, gen, 1,
		PairedOptions{MaxRuns: runs})
	if err != nil {
		t.Fatalf("RunPaired: %v", err)
	}
	if got := calls.Load(); got != runs {
		t.Errorf("judge called %d times for %d seeds x %d policies, want %d (once per seed)",
			got, runs, len(pe.Names), runs)
	}
	if pe.JudgeCalls != runs {
		t.Errorf("JudgeCalls = %d, want %d", pe.JudgeCalls, runs)
	}
}

// TestPairedSlotsAccounting: SlotsSimulated equals k policies times the
// summed workload spans WorkloadSlots reports — the shared accounting
// unit the paired-vs-independent benchmark pair relies on.
func TestPairedSlotsAccounting(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.5}
	const baseSeed, runs = 2, 10
	pe, err := RunPaired(context.Background(), cfg, gmPair(), ExactUnitCIOQ, gen, baseSeed,
		PairedOptions{MaxRuns: runs})
	if err != nil {
		t.Fatalf("RunPaired: %v", err)
	}
	want := 2 * WorkloadSlots(cfg, gen, baseSeed, runs)
	if pe.SlotsSimulated != want {
		t.Errorf("SlotsSimulated = %d, want %d (2 policies x workload spans)", pe.SlotsSimulated, want)
	}
}

// TestPairedTargetStopsDeterministically: with a reachable diff target
// the run stops early at a chunk boundary, and the result is independent
// of the fleet batch size.
func TestPairedTargetStopsDeterministically(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.5}
	const budget, chunk = 96, 8
	opts := PairedOptions{Chunk: chunk, MaxRuns: budget, Target: stats.Target{AbsWidth: 0.15}}
	var want PairedEstimate
	for i, batch := range []int{3, 32} {
		opts.Batch = batch
		pe, err := RunPaired(context.Background(), cfg, gmPair(), ExactUnitCIOQ, gen, 4, opts)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if !pe.TargetMet {
			t.Fatalf("batch=%d: target not met within %d seeds — test workload mistuned", batch, budget)
		}
		if pe.Seeds >= budget || pe.Seeds%chunk != 0 {
			t.Errorf("batch=%d: stopped at %d seeds, want an early chunk multiple of %d", batch, pe.Seeds, chunk)
		}
		if i == 0 {
			want = pe
			continue
		}
		if !reflect.DeepEqual(pe, want) {
			t.Errorf("batch=%d: result differs from batch=3:\n got %+v\nwant %+v", batch, pe, want)
		}
	}
}

// TestPairedErrorAttribution: a policy failing on one seed surfaces
// Run's exact seed-attributed error text, wrapped with the policy name.
func TestPairedErrorAttribution(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, runs, failIdx = 50, 10, 7
	failSeed := int64(baseSeed + failIdx)
	boom := errors.New("boom")
	failing := func() FleetAlg {
		inner := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} })()
		return func(c switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			for _, s := range seqs {
				if fingerprintSeedMatch(c, gen, failSeed, s) {
					return nil, boom
				}
			}
			return inner(c, seqs)
		}
	}
	pols := []PairedPolicy{
		{Name: "gm", Alg: CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })},
		{Name: "gm-colmajor", Alg: failing},
	}
	want := fmt.Sprintf("paired policy %q: ratio: seed %d: policy run: boom", "gm-colmajor", failSeed)
	for _, batch := range []int{3, 16} {
		_, err := RunPaired(context.Background(), cfg, pols, ExactUnitCIOQ, gen, baseSeed,
			PairedOptions{Batch: batch, MaxRuns: runs})
		if err == nil || err.Error() != want {
			t.Errorf("batch=%d: error = %v, want %q", batch, err, want)
		}
	}
}

// TestPairedSinglePolicyTargetsMarginal: with one policy the target
// applies to the marginal mean, reducing RunPaired to a fleet-backed
// sequential estimation.
func TestPairedSinglePolicyTargetsMarginal(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	pe, err := RunPaired(context.Background(), cfg, gmPair()[:1], ExactUnitCIOQ, gen, 9,
		PairedOptions{Chunk: 8, MaxRuns: 96, Target: stats.Target{AbsWidth: 0.25}})
	if err != nil {
		t.Fatalf("RunPaired: %v", err)
	}
	if !pe.TargetMet || pe.Seeds >= 96 {
		t.Errorf("single-policy target not applied to marginal: %+v", pe)
	}
	if len(pe.Diffs) != 0 {
		t.Errorf("single policy must produce no diffs, got %+v", pe.Diffs)
	}
}

// TestPairedNoPolicies: degenerate input errors cleanly.
func TestPairedNoPolicies(t *testing.T) {
	cfg := microCfg()
	if _, err := RunPaired(context.Background(), cfg, nil, ExactUnitCIOQ,
		packet.Bernoulli{Load: 1.0}, 1, PairedOptions{MaxRuns: 4}); err == nil {
		t.Error("want error for zero policies")
	}
}

// TestPairedTailQuantiles: the marginals retain their samples, so
// worst-seed tail quantiles are available on both arms.
func TestPairedTailQuantiles(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.5}
	pe, err := RunPaired(context.Background(), cfg, gmPair(), ExactUnitCIOQ, gen, 5,
		PairedOptions{MaxRuns: 16})
	if err != nil {
		t.Fatalf("RunPaired: %v", err)
	}
	for p, m := range pe.Marginals {
		qs := m.TailQuantiles(0.9, 0.99, 1.0)
		if len(qs) != 3 {
			t.Fatalf("policy %d: got %d quantiles", p, len(qs))
		}
		if qs[0] > qs[1] || qs[1] > qs[2] {
			t.Errorf("policy %d: quantiles not monotone: %v", p, qs)
		}
		if qs[2] != m.Max {
			t.Errorf("policy %d: p100 = %v, want max %v", p, qs[2], m.Max)
		}
	}
}

// TestPairedAccountingFixed pins RunPaired's accounting on a sparse
// workload whose spans vary by seed, batches of 5 within chunks of 7: a
// fixed budget and a run its target stops early must report the switch
// slots and judge calls the one-goroutine evaluator reported, however the
// lanes split the batches.
func TestPairedAccountingFixed(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 9
	gen := packet.Bernoulli{Load: 0.3}
	for _, tc := range []struct {
		opts          PairedOptions
		seeds         int
		slots, judged int64
	}{
		{PairedOptions{Batch: 5, Chunk: 7, MaxRuns: 40}, 40, 636, 40},
		{PairedOptions{Batch: 5, Chunk: 7, MaxRuns: 400, Target: stats.Target{AbsWidth: 0.05}}, 14, 216, 14},
	} {
		pe, err := RunPaired(context.Background(), cfg, gmPair(), ExactUnitCIOQ, gen, 17, tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if pe.Seeds != tc.seeds || pe.SlotsSimulated != tc.slots || pe.JudgeCalls != tc.judged {
			t.Errorf("%+v: seeds %d, slots %d, judge calls %d; want %d, %d, %d",
				tc.opts, pe.Seeds, pe.SlotsSimulated, pe.JudgeCalls, tc.seeds, tc.slots, tc.judged)
		}
	}
}
