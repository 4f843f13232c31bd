package adversary

import (
	"reflect"
	"runtime"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/switchsim"
)

func TestAdaptiveAntiGreedyForcesLowerBoundOnDeterministicGM(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		cfg := IQLowerBoundCfg(m)
		const phases = 2
		seq, benefit, err := AdaptiveAntiGreedy(cfg, &core.GM{}, phases)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			t.Fatalf("m=%d opt: %v", m, err)
		}
		wantRatio := 2 - 1/float64(m)
		got := float64(opt) / float64(benefit)
		if got < wantRatio-1e-9 {
			t.Errorf("m=%d: adaptive adversary only achieved %.4f, want >= %.4f",
				m, got, wantRatio)
		}
		if float64(opt) > 3*float64(benefit) {
			t.Errorf("m=%d: ratio %.4f exceeds Theorem 1 bound", m, got)
		}
	}
}

func TestAdaptiveAntiGreedyWorksAgainstAnyOrder(t *testing.T) {
	// The adaptive adversary does not rely on knowing the scan order:
	// it must force the same ratio against column-major and rotating GM.
	for _, mk := range []func() switchsim.CIOQPolicy{
		func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} },
		func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} },
		func() switchsim.CIOQPolicy { return &core.GM{Order: core.LongestFirst} },
	} {
		cfg := IQLowerBoundCfg(3)
		seq, benefit, err := AdaptiveAntiGreedy(cfg, mk(), 2)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(opt) / float64(benefit)
		if got < 2-1.0/3-1e-9 {
			t.Errorf("adaptive adversary achieved only %.4f against order variant", got)
		}
	}
}

func TestAdaptiveAntiGreedyRejectsMultiInput(t *testing.T) {
	cfg := IQLowerBoundCfg(2)
	cfg.Inputs = 2
	if _, _, err := AdaptiveAntiGreedy(cfg, &core.GM{}, 1); err == nil {
		t.Error("multi-input config accepted")
	}
}

// TestAdaptiveAntiGreedyAllocations pins what a run at the benchmark's size
// allocates — the sequence once at its final capacity, nothing per phase or
// per refill — and that the sequence it returns without sorting is already
// normalized.
func TestAdaptiveAntiGreedyAllocations(t *testing.T) {
	cfg := IQLowerBoundCfg(64)
	const phases, runs = 48, 5
	seq, _, err := AdaptiveAntiGreedy(cfg, &core.GM{}, phases)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, seq.Clone().Normalize()) {
		t.Error("the sequence is not in (slot, ID) order with IDs 0..n-1")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := AdaptiveAntiGreedy(cfg, &core.GM{}, phases); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 320_000 {
		t.Errorf("a run allocated %d bytes, want <= 320 KB", b)
	}
	if n := (after.Mallocs - before.Mallocs) / runs; n > 30 {
		t.Errorf("a run made %d allocations, want <= 30", n)
	}
}

func TestObliviousReplayFavorsRandomization(t *testing.T) {
	// The E14b effect, asserted: on the fixed row-major-tuned sequence,
	// randomized GM's expected benefit beats deterministic GM's.
	m := 6
	cfg := IQLowerBoundCfg(m)
	seq := IQLowerBound(m, 3)
	det, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	const trials = 15
	for k := 0; k < trials; k++ {
		res, err := switchsim.RunCIOQ(cfg, &core.RandomizedGM{Seed: int64(k + 1)}, seq)
		if err != nil {
			t.Fatal(err)
		}
		total += res.M.Benefit
	}
	mean := float64(total) / trials
	if mean <= float64(det.M.Benefit) {
		t.Errorf("randomized mean %.1f not better than deterministic %d on oblivious sequence",
			mean, det.M.Benefit)
	}
}
