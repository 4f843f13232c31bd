package ratio

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Determinism across backends: for the same config, generator and seeds,
// the sequential Run, RunParallel at any worker count, and RunFleet at
// any (workers, batch) combination must produce byte-identical Estimates
// — the batched columnar engine is bit-identical to the scalar engines,
// and all three merge in seed order.
//
// This test binary links package fleet, so switchsim.RunCIOQ and
// RunCrossbar run a bare GM, PG or CGU on the same columnar kernel the
// fleet side uses. The scalar sides therefore wrap their policies
// (struct{ *core.GM }): the wrapper hides the concrete type the kernel
// lookup matches on, and the run takes the reference slot loop with
// every method of the policy promoted.

func backendCfg() switchsim.Config {
	return switchsim.Config{
		Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1,
		Speedup: 1, Slots: 7,
	}
}

func assertSameEstimate(t *testing.T, label string, want, got Estimate) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: estimate diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
}

func TestRunFleetMatchesScalarBackends(t *testing.T) {
	cfg := backendCfg()
	gen := packet.Bernoulli{Load: 1.2}
	factory := func() switchsim.CIOQPolicy { return &core.GM{} }
	ref := func() switchsim.CIOQPolicy { return struct{ *core.GM }{&core.GM{}} }
	const runs = 24

	want, err := Run(context.Background(), cfg, CIOQAlg(ref), ExactUnitCIOQ, gen, 11, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		par, err := RunParallel(context.Background(), cfg, CIOQAlg(ref), ExactUnitCIOQ, gen, 11, runs, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, "RunParallel", want, par)
		for _, batch := range []int{1, 5, 24, 100} {
			fl, err := RunFleet(context.Background(), cfg, CIOQFleetAlg(factory), ExactUnitCIOQ, gen, 11, runs, workers, batch)
			if err != nil {
				t.Fatal(err)
			}
			assertSameEstimate(t, "RunFleet", want, fl)
		}
	}
}

func TestRunFleetCrossbarMatchesScalarBackends(t *testing.T) {
	cfg := backendCfg()
	gen := packet.Hotspot{Load: 1.5, HotFrac: 0.8}
	factory := func() switchsim.CrossbarPolicy { return &core.CGU{RotatePick: true} }
	ref := func() switchsim.CrossbarPolicy { return struct{ *core.CGU }{&core.CGU{RotatePick: true}} }
	const runs = 16

	want, err := Run(context.Background(), cfg, CrossbarAlg(ref), ExactUnitCrossbar, gen, 5, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 64} {
		fl, err := RunFleet(context.Background(), cfg, CrossbarFleetAlg(factory), ExactUnitCrossbar, gen, 5, runs, 2, batch)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, "RunFleet crossbar", want, fl)
	}
}

// TestRunFleetFallbackPolicy drives RunFleet with a weighted policy
// family, PG, whose values take the ByValue queues and preemption: the
// estimate must still match the reference slot loop's byte for byte.
func TestRunFleetFallbackPolicy(t *testing.T) {
	cfg := backendCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 0.8, Values: packet.UniformValues{Hi: 20}}
	factory := func() switchsim.CIOQPolicy { return &core.PG{} }
	ref := func() switchsim.CIOQPolicy { return struct{ *core.PG }{&core.PG{}} }
	const runs = 10

	want, err := Run(context.Background(), cfg, CIOQAlg(ref), ExactWeightedCIOQ, gen, 3, runs)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := RunFleet(context.Background(), cfg, CIOQFleetAlg(factory), ExactWeightedCIOQ, gen, 3, runs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimate(t, "RunFleet fallback", want, fl)
}

// FuzzFleetChunksIdentity: RunSequential over FleetChunks is
// byte-identical to Run, errors included, for CIOQ GM and crossbar CGU
// at any batch size and chunk size. Odd batches split into unequal
// halves, a batch of one leaves the second lane empty, and chunks that
// are not a multiple of the batch end on a short batch. When fail < 64
// the policy fails on one seed's sequence (if the judge finds it
// eligible), so the error must land on the same seed through the lanes.
func FuzzFleetChunksIdentity(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(7), uint8(5), uint8(11), false, uint8(200))
	f.Add(int64(9), uint8(40), uint8(1), uint8(0), uint8(14), true, uint8(200))
	f.Add(int64(-3), uint8(23), uint8(17), uint8(8), uint8(3), false, uint8(9))
	f.Add(int64(4), uint8(13), uint8(4), uint8(6), uint8(9), true, uint8(2))
	f.Fuzz(func(t *testing.T, baseSeed int64, runs, batch, chunk, load uint8, crossbar bool, fail uint8) {
		cfg := microCfg()
		cfg.Slots = 4
		nRuns := int(runs%40) + 1
		gen := packet.Bernoulli{Load: float64(load%20+1) / 10}
		// The scalar side wraps its policy; see the top of this file.
		alg, fleet, judge := CIOQAlg(func() switchsim.CIOQPolicy { return struct{ *core.GM }{&core.GM{}} }),
			CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} }), JudgeFactory(ExactUnitCIOQ)
		if crossbar {
			alg, fleet, judge = CrossbarAlg(func() switchsim.CrossbarPolicy { return struct{ *core.CGU }{&core.CGU{}} }),
				CrossbarFleetAlg(func() switchsim.CrossbarPolicy { return &core.CGU{} }), ExactUnitCrossbar
		}
		if fail < 64 {
			// A sequence the judge scores 0 is never run alone, so the
			// scalar engine would not fail on it: only eligible ones fail.
			failSeq := generateSeq(cfg, gen, newSeedRand(), baseSeed+int64(int(fail)%nRuns), nil)
			if opt, err := judge().Judge(cfg, failSeq); err == nil && opt > 0 {
				alg, fleet = failingOn(failSeq, alg, fleet)
			}
		}
		ctx := context.Background()
		want, wantErr := Run(ctx, cfg, alg, judge, gen, baseSeed, nRuns)
		got, _, gotErr := RunSequential(ctx, FleetChunks(cfg, fleet, judge, gen, baseSeed, int(batch%17)+1),
			SequentialOptions{Chunk: int(chunk % 40), MaxRuns: nRuns})
		if !sameErr(wantErr, gotErr) {
			t.Fatalf("error mismatch: Run=%v fleet=%v", wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("estimate mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
}

// failingOn wraps a policy's scalar and batched forms to fail on every
// sequence equal to bad, with the same error text in both.
func failingOn(bad packet.Sequence, alg Alg, fleet FleetAlgFactory) (Alg, FleetAlgFactory) {
	is := func(seq packet.Sequence) bool { return slices.Equal(seq, bad) }
	boom := errors.New("boom")
	return func(c switchsim.Config, seq packet.Sequence) (int64, error) {
			if is(seq) {
				return 0, boom
			}
			return alg(c, seq)
		}, func() FleetAlg {
			inner := fleet()
			return func(c switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
				for _, s := range seqs {
					if is(s) {
						return nil, boom
					}
				}
				return inner(c, seqs)
			}
		}
}

// TestLanesMintedAsSplit counts the judges and FleetAlgs an evaluator
// mints: Run's batches of one never split, so it mints lane 0 alone; a
// fleet evaluator mints lane 1 with the first batch that splits.
func TestLanesMintedAsSplit(t *testing.T) {
	cfg := backendCfg()
	gen := packet.Bernoulli{Load: 1.2}
	var judges, fleets int
	judge := func() Judge { judges++; return ExactUnitCIOQ() }
	if _, err := Run(context.Background(), cfg, CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }), judge, gen, 3, 6); err != nil {
		t.Fatal(err)
	}
	if judges != 1 {
		t.Errorf("Run minted %d judges, want 1", judges)
	}
	judges = 0
	alg := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	counted := func() FleetAlg { fleets++; return alg() }
	eval := FleetChunks(cfg, counted, judge, gen, 3, 1)
	if _, err := eval(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	if judges != 1 || fleets != 1 {
		t.Errorf("batches of one minted %d judges and %d fleets, want 1 and 1", judges, fleets)
	}
	eval = FleetChunks(cfg, counted, judge, gen, 3, 4)
	for range 2 {
		if _, err := eval(context.Background(), 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	if judges != 3 || fleets != 3 {
		t.Errorf("after a second evaluator's split batches: %d judges and %d fleets minted, want 3 and 3", judges, fleets)
	}
}
