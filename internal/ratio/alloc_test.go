package ratio

import (
	"context"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// TestScalarChunksSeedAllocs pins what one more seed costs a warm
// ScalarChunks evaluator on a small fixed config: no more than drawing the
// seed's sequence with a held, reseeded generator, running the policy and
// judging it (31 objects a seed without the race detector). A return to a
// fresh source per seed, two more objects a seed, fails here.
func TestScalarChunksSeedAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 8}
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	gen := packet.Bernoulli{Load: 1.5}
	const base = 7
	eval := ScalarChunks(cfg, alg, ExactUnitCIOQ, gen, base)
	ctx := context.Background()
	scalar := func(n int) {
		if _, err := eval(ctx, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	j, r := ExactUnitCIOQ(), newSeedRand()
	direct := func(n int) {
		for k := 0; k < n; k++ {
			if _, _, err := Single(cfg, alg, j, generateSeq(cfg, gen, r, base+int64(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	perSeed := func(f func(int)) float64 {
		f(64)
		big := testing.AllocsPerRun(20, func() { f(64) })
		small := testing.AllocsPerRun(20, func() { f(32) })
		return (big - small) / 32
	}
	got, want := perSeed(scalar), perSeed(direct)
	if got > want+0.5 {
		t.Fatalf("a warm ScalarChunks allocates %.2f objects a seed; generating, running and judging it takes %.2f", got, want)
	}
}
