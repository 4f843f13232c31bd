package adversary

import (
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// TestIQLowerBoundForcesTwoMinusOneOverM verifies the classical greedy
// lower bound: on the IQ-model embedding, GM achieves exactly ratio
// (2m-1)/m = 2 - 1/m against the exact offline optimum.
func TestIQLowerBoundForcesTwoMinusOneOverM(t *testing.T) {
	for _, m := range []int{2, 3} {
		cfg := IQLowerBoundCfg(m)
		cfg.Validate = true
		const phases = 2
		seq := IQLowerBound(m, phases)
		gm, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		wantGM := int64(m * phases)
		wantOPT := int64((2*m - 1) * phases)
		if gm.M.Benefit != wantGM {
			t.Errorf("m=%d: GM benefit %d, want %d", m, gm.M.Benefit, wantGM)
		}
		if opt != wantOPT {
			t.Errorf("m=%d: OPT %d, want %d", m, opt, wantOPT)
		}
		gotRatio := float64(opt) / float64(gm.M.Benefit)
		wantRatio := 2 - 1/float64(m)
		if diff := gotRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("m=%d: ratio %.4f, want %.4f", m, gotRatio, wantRatio)
		}
	}
}

func TestIQLowerBoundStaysUnderTheorem1(t *testing.T) {
	// Even the adversarial family respects the proven upper bound of 3.
	for m := 2; m <= 3; m++ {
		cfg := IQLowerBoundCfg(m)
		seq := IQLowerBound(m, 2)
		gm, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := offline.ExactUnitCIOQ(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		if float64(opt) > 3*float64(gm.M.Benefit) {
			t.Errorf("m=%d: ratio %f exceeds 3", m, float64(opt)/float64(gm.M.Benefit))
		}
	}
}

func TestHotspotBurstsShape(t *testing.T) {
	seq := HotspotBursts(3, 4, 5, 2, nil)
	if err := seq.Validate(3, 1); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3*4*2 {
		t.Errorf("len %d, want 24", len(seq))
	}
	for _, p := range seq {
		if p.Out != 0 {
			t.Fatalf("packet %v not targeting the hotspot", p)
		}
		if p.Arrival%5 != 0 {
			t.Fatalf("packet %v arrives off-burst", p)
		}
	}
}

func TestPreemptionChainsShape(t *testing.T) {
	seq := PreemptionChains(2, 2.414, 5, 2)
	if err := seq.Validate(2, 1); err != nil {
		t.Fatal(err)
	}
	// Values along each input's chain must grow by more than beta.
	byIn := map[int][]packet.Packet{}
	for _, p := range seq {
		byIn[p.In] = append(byIn[p.In], p)
	}
	for in, ps := range byIn {
		var prev int64
		for _, p := range ps {
			if p.Value < prev { // within a slot values repeat (burst)
				if p.Arrival == ps[0].Arrival {
					continue
				}
			}
			prev = p.Value
		}
		if len(ps) != 10 {
			t.Errorf("input %d has %d packets, want 10", in, len(ps))
		}
	}
}

func TestDiagonalFlipShape(t *testing.T) {
	seq := DiagonalFlip(3, 4, 2)
	if err := seq.Validate(3, 3); err != nil {
		t.Fatal(err)
	}
	for _, p := range seq {
		round := p.Arrival / 4
		if round%2 == 0 && p.Out != p.In {
			t.Fatalf("round 0 packet %v should be diagonal", p)
		}
		if round%2 == 1 && p.Out != 0 {
			t.Fatalf("round 1 packet %v should target output 0", p)
		}
	}
}

// TestSearchFindsBadInstancesButRespectsBound runs the adversarial fuzzer
// against GM with the exact optimum as the judge: it must discover
// instances well above ratio 1 while never producing one above 3.
func TestSearchFindsBadInstancesButRespectsBound(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1,
		CrossBuf: 1, Speedup: 1, Validate: true}
	alg := ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	eval := func(seq packet.Sequence) (float64, bool) {
		r, ok, err := ratio.Single(cfg, alg, ratio.ExactUnitCIOQ(), seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	}
	res := Search(SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 5, MaxPackets: 8,
		MaxValue: 1, Iterations: 150, Seed: 99, Restarts: 2,
	}, eval)
	if res.Ratio < 1.2 {
		t.Errorf("fuzzer only reached ratio %.4f; expected to find contention above 1.2", res.Ratio)
	}
	if res.Ratio > 3.0+1e-9 {
		t.Errorf("fuzzer found ratio %.4f above the proven bound 3 — simulator or OPT is wrong", res.Ratio)
	}
	if len(res.Seq) == 0 {
		t.Error("no adversarial sequence retained")
	}
}

// TestSearchWeighted runs the fuzzer against PG with the weighted exact
// optimum: found ratios must stay below 3+2√2.
func TestSearchWeighted(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1,
		CrossBuf: 1, Speedup: 1, Validate: true}
	alg := ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.PG{} })
	eval := func(seq packet.Sequence) (float64, bool) {
		r, ok, err := ratio.Single(cfg, alg, ratio.ExactWeightedCIOQ(), seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	}
	res := Search(SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 4, MaxPackets: 7,
		MaxValue: 16, Iterations: 80, Seed: 7, Restarts: 1,
	}, eval)
	if res.Ratio > core.PGRatio(core.DefaultBetaPG())+1e-9 {
		t.Errorf("fuzzer found PG ratio %.4f above the proven bound %.4f",
			res.Ratio, core.PGRatio(core.DefaultBetaPG()))
	}
	if res.Ratio < 1.0 {
		t.Errorf("ratio %.4f below 1", res.Ratio)
	}
}

// TestSearchTriedCountsEveryRestart: Tried is every mutation tried,
// Restarts × Iterations, whichever restart wins.
func TestSearchTriedCountsEveryRestart(t *testing.T) {
	for _, restarts := range []int{1, 2, 3, 5} {
		opts := huntOpts()
		opts.Restarts = restarts
		if got, want := Search(opts, huntEval).Tried, restarts*opts.Iterations; got != want {
			t.Errorf("Restarts %d: Tried = %d, want %d", restarts, got, want)
		}
	}
}
