package ratio

import (
	"math/rand"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// TestReusedJudgeIsHistoryIndependent drives one judge across a stream of
// differently-shaped sequences and checks every verdict matches a
// freshly-minted judge's: scratch reuse must never leak between calls.
func TestReusedJudgeIsHistoryIndependent(t *testing.T) {
	cfgs := []switchsim.Config{
		{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 10},
		{Inputs: 6, Outputs: 3, InputBuf: 1, OutputBuf: 4, CrossBuf: 2, Speedup: 2, Slots: 50},
		{Inputs: 4, Outputs: 4, InputBuf: 3, OutputBuf: 1, CrossBuf: 1, Speedup: 1, Slots: 120},
	}
	gens := []packet.Generator{
		packet.Bernoulli{Load: 1.4},
		packet.PoissonBurst{OffMean: 20, BurstMean: 3, Values: packet.UniformValues{Hi: 25}},
		packet.BurstyBlocking{OffMean: 15, Burst: 5, Fanin: 2},
	}
	for _, factory := range []JudgeFactory{UpperBoundCIOQ, UpperBoundCrossbar} {
		reused := factory()
		for round := 0; round < 3; round++ {
			for gi, gen := range gens {
				for ci, cfg := range cfgs {
					rng := rand.New(rand.NewSource(int64(100*round + 10*gi + ci)))
					seq := gen.Generate(rng, cfg.Inputs, cfg.Outputs, cfg.Slots)
					got, err := reused.Judge(cfg, seq)
					if err != nil {
						t.Fatal(err)
					}
					want, err := factory().Judge(cfg, seq)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("round %d gen %d cfg %d: reused judge %d != fresh %d",
							round, gi, ci, got, want)
					}
				}
			}
		}
	}
}

// TestReusedJudgeZeroAllocsSteadyState pins the Judge refactor's alloc
// contract at the ratio layer: a worker-held upper-bound judge evaluating
// sequence after sequence allocates nothing once warm — on a bursty
// weighted stream, and on the fleet's gm16 chunk (256 seeded 16×16×64
// unit-value sequences, BenchmarkJudgeMonteCarloUB16's shape).
func TestReusedJudgeZeroAllocsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  switchsim.Config
		gen  packet.Generator
		seqs int
	}{
		{"bursty8", switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 2, OutputBuf: 4,
			CrossBuf: 1, Speedup: 2, Slots: 400},
			packet.PoissonBurst{OffMean: 30, BurstMean: 4, Values: packet.UniformValues{Hi: 20}}, 8},
		{"gm16", switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2,
			Speedup: 1, Slots: 64},
			packet.Bernoulli{Load: 1.2}, 256},
	} {
		seqs := make([]packet.Sequence, tc.seqs)
		for k := range seqs {
			rng := rand.New(rand.NewSource(int64(k + 1)))
			seqs[k] = tc.gen.Generate(rng, tc.cfg.Inputs, tc.cfg.Outputs, tc.cfg.Slots)
		}
		j := UpperBoundCIOQ()
		pass := func() {
			for _, seq := range seqs {
				if _, err := j.Judge(tc.cfg, seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(4, pass); allocs != 0 {
			t.Errorf("%s: reused judge allocates %.1f per pass over %d sequences, want 0",
				tc.name, allocs, tc.seqs)
		}
	}
}
