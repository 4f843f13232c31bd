package core

import (
	"math/rand"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// The paper's algorithms are scale-free: multiplying every packet value
// by a constant multiplies the benefit by the same constant and changes
// no decision (the eligibility tests v > beta*l compare scaled pairs).
// A power-of-two factor keeps the float64 threshold comparisons exact,
// making this a strict metamorphic test of the whole pipeline.
const scaleFactor = 8

// scaleValues returns a copy of seq with every value multiplied by factor.
func scaleValues(seq packet.Sequence, factor int64) packet.Sequence {
	out := seq.Clone()
	for i := range out {
		out[i].Value *= factor
	}
	return out
}

// withUnitValues returns a copy of seq with every value set to 1.
func withUnitValues(seq packet.Sequence) packet.Sequence {
	out := seq.Clone()
	for i := range out {
		out[i].Value = 1
	}
	return out
}

func TestPGScaleInvariance(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 1,
		CrossBuf: 1, Speedup: 2, Validate: true, Slots: 30}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := packet.Hotspot{Load: 1.6, HotFrac: 0.7, Values: packet.UniformValues{Hi: 40}}.
			Generate(rng, 3, 3, 20)
		base := mustRunCIOQ(t, cfg, &PG{}, seq)
		scaled := mustRunCIOQ(t, cfg, &PG{}, scaleValues(seq, scaleFactor))
		if scaled.M.Benefit != scaleFactor*base.M.Benefit {
			t.Errorf("seed %d: scaled benefit %d != %d * base %d",
				seed, scaled.M.Benefit, scaleFactor, base.M.Benefit)
		}
		if scaled.M.Sent != base.M.Sent || scaled.M.PreemptedInput != base.M.PreemptedInput ||
			scaled.M.PreemptedOutput != base.M.PreemptedOutput {
			t.Errorf("seed %d: scaling changed decisions: sent %d vs %d, preempt (%d,%d) vs (%d,%d)",
				seed, scaled.M.Sent, base.M.Sent,
				scaled.M.PreemptedInput, scaled.M.PreemptedOutput,
				base.M.PreemptedInput, base.M.PreemptedOutput)
		}
	}
}

func TestCPGScaleInvariance(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 1,
		CrossBuf: 1, Speedup: 2, Validate: true, Slots: 30}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := packet.Bursty{OnLoad: 1.0, POnOff: 0.3, POffOn: 0.3,
			Values: packet.ZipfValues{Hi: 100, S: 1.1}}.Generate(rng, 3, 3, 20)
		base := mustRunXbar(t, cfg, &CPG{}, seq)
		scaled := mustRunXbar(t, cfg, &CPG{}, scaleValues(seq, scaleFactor))
		if scaled.M.Benefit != scaleFactor*base.M.Benefit {
			t.Errorf("seed %d: scaled benefit %d != %d * base %d",
				seed, scaled.M.Benefit, scaleFactor, base.M.Benefit)
		}
		if scaled.M.Sent != base.M.Sent {
			t.Errorf("seed %d: scaling changed sent count", seed)
		}
	}
}

func TestKRMWMScaleInvariance(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 1,
		CrossBuf: 1, Speedup: 2, Validate: true, Slots: 20}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := packet.Bernoulli{Load: 1.4, Values: packet.UniformValues{Hi: 25}}.
			Generate(rng, 2, 2, 14)
		base := mustRunCIOQ(t, cfg, &KRMWM{}, seq)
		scaled := mustRunCIOQ(t, cfg, &KRMWM{}, scaleValues(seq, scaleFactor))
		if scaled.M.Benefit != scaleFactor*base.M.Benefit {
			t.Errorf("seed %d: scaled benefit %d != %d * base %d",
				seed, scaled.M.Benefit, scaleFactor, base.M.Benefit)
		}
	}
}

// TestGMValueBlindness: GM ignores values entirely, so replacing all
// values with 1 must not change which packets are moved (sent count).
func TestGMValueBlindness(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1, Validate: true, Slots: 30}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := packet.Hotspot{Load: 1.5, HotFrac: 0.6, Values: packet.UniformValues{Hi: 30}}.
			Generate(rng, 3, 3, 20)
		weighted := mustRunCIOQ(t, cfg, &GM{}, seq)
		unit := mustRunCIOQ(t, cfg, &GM{}, withUnitValues(seq))
		if weighted.M.Sent != unit.M.Sent {
			t.Errorf("seed %d: GM sent %d weighted vs %d unit — value leakage",
				seed, weighted.M.Sent, unit.M.Sent)
		}
	}
}
