package ratio

import (
	"context"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// TestScalarChunksSeedAllocs pins what one more seed costs a warm
// ScalarChunks evaluator on a small fixed config, against two direct
// loops that run the policy and judge each seed with a held, reseeded
// generator: one drawing every seed into a buffer it holds, the other
// drawing every seed into a fresh sequence. The evaluator may cost no
// more than the held loop (half an object of slack), so a fresh source or
// a fresh sequence per seed fails here, and at least one object less than
// the fresh loop, so drawing in place has to pay off.
func TestScalarChunksSeedAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 8}
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	var gen packet.Generator = packet.Bernoulli{Load: 1.5} // boxed once, as the evaluator holds it
	// Each judge holds its own exact solver: the pooled ExactUnitCIOQ would
	// add the race detector's random sync.Pool drops to both counts.
	judge := func() Judge { return JudgeFunc(new(offline.UnitCIOQSolver).Solve) }
	const base = 7
	eval := ScalarChunks(cfg, alg, judge, gen, base)
	ctx := context.Background()
	scalar := func(n int) {
		if _, err := eval(ctx, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	j, r := judge(), newSeedRand()
	var buf packet.Sequence
	direct := func(keep bool) func(int) {
		return func(n int) {
			for k := 0; k < n; k++ {
				dst := buf
				if !keep {
					dst = nil
				}
				buf = generateSeq(cfg, gen, r, base+int64(k), dst)
				if _, _, err := Single(cfg, alg, j, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	perSeed := func(f func(int)) float64 {
		f(64)
		big := testing.AllocsPerRun(20, func() { f(64) })
		small := testing.AllocsPerRun(20, func() { f(32) })
		return (big - small) / 32
	}
	got, held, fresh := perSeed(scalar), perSeed(direct(true)), perSeed(direct(false))
	t.Logf("objects a seed: evaluator %.2f, held buffer %.2f, fresh sequence %.2f", got, held, fresh)
	if got > held+0.5 {
		t.Errorf("a warm ScalarChunks allocates %.2f objects a seed; drawing it into a held buffer, running and judging it takes %.2f", got, held)
	}
	if got > fresh-1 {
		t.Errorf("a warm ScalarChunks allocates %.2f objects a seed; drawing it fresh, running and judging it takes %.2f", got, fresh)
	}
}

// TestFleetChunksAllocsIndependentOfLoad pins that nothing a warm
// FleetChunks evaluator allocates scales with the packet count: on a
// gm16-like shape (16x16 unit GM fleet, upper-bound judge, 64 slots) a
// chunk allocates the same at load 2.4 as at load 1.2, about twice the
// packets. Drawing each seed into a fresh sequence adds a slice growth a
// seed at the higher load and fails here.
func TestFleetChunksAllocsIndependentOfLoad(t *testing.T) {
	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 64}
	alg := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	ctx := context.Background()
	const seeds = 16
	perChunk := func(load float64) float64 {
		eval := FleetChunks(cfg, alg, UpperBoundCIOQ, packet.Bernoulli{Load: load}, 3, seeds)
		chunk := func() {
			if _, err := eval(ctx, 0, seeds); err != nil {
				t.Fatal(err)
			}
		}
		chunk()
		return testing.AllocsPerRun(10, chunk)
	}
	lo, hi := perChunk(1.2), perChunk(2.4)
	t.Logf("objects a warm chunk: %.1f at load 1.2, %.1f at load 2.4", lo, hi)
	if hi != lo {
		t.Fatalf("a warm FleetChunks chunk allocates %.1f objects at load 1.2 and %.1f at load 2.4", lo, hi)
	}
}
