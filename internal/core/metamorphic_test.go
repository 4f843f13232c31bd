package core

import (
	"fmt"
	"math/rand"
	"reflect"
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

// relabelPorts returns seq with its inputs sent through in and its
// outputs through out; packet IDs and order are kept.
func relabelPorts(seq packet.Sequence, in, out []int) packet.Sequence {
	moved := seq.Clone()
	for x := range moved {
		moved[x].In, moved[x].Out = in[moved[x].In], out[moved[x].Out]
	}
	return moved
}

// TestCPGPortRelabelling checks that CPG on the crossbar slot loop does not
// depend on port names: permuting the inputs and the outputs, and embedding
// the switch into a wider one whose extra ports see no traffic, leaves
// every metric unchanged. CPG breaks ties by packet ID, never by port, and
// Metrics sums over ports. Small values make ties common; values up to
// 4096 cross MaxIndexedValue; 40+25 ports cross the one-word row; speedup
// 2 lets hotspot outputs fill, so both thresholds preempt.
func TestCPGPortRelabelling(t *testing.T) {
	policies := []struct {
		name string
		mk   func() *CPG
	}{
		{"cpg", func() *CPG { return &CPG{} }},
		{"cpg-equal", CPGEqualParams},
	}
	var crossPreempted, outPreempted int64
	seed := int64(0)
	for _, c := range []struct{ n, k, slots int }{{2, 25, 200}, {16, 0, 60}, {40, 25, 8}, {64, 0, 8}} {
		base := switchsim.Config{Inputs: c.n, Outputs: c.n, InputBuf: 2, OutputBuf: 3, CrossBuf: 1,
			Speedup: 2, Validate: true, RecordLatency: true}
		wide := base
		wide.Inputs, wide.Outputs = c.n+c.k, c.n+c.k
		for _, hi := range []int64{4, 4096} {
			seed++
			rng := rand.New(rand.NewSource(seed))
			gen := packet.Hotspot{Load: 1.5, HotFrac: 0.5, Values: packet.UniformValues{Hi: hi}}
			seq := gen.Generate(rng, c.n, c.n, c.slots)
			moved := relabelPorts(seq, rng.Perm(c.n+c.k), rng.Perm(c.n+c.k))
			for _, p := range policies {
				label := fmt.Sprintf("%s/n=%d/k=%d/values=[1,%d]", p.name, c.n, c.k, hi)
				want := mustRunXbar(t, base, p.mk(), seq)
				got := mustRunXbar(t, wide, p.mk(), moved)
				crossPreempted += want.M.PreemptedCross
				outPreempted += want.M.PreemptedOutput
				if !reflect.DeepEqual(want.M, got.M) {
					t.Errorf("%s: relabelled run diverged:\noriginal:   %+v\nrelabelled: %+v", label, want.M, got.M)
				}
			}
		}
	}
	if crossPreempted == 0 || outPreempted == 0 {
		t.Errorf("%d crosspoint and %d output preemptions: the traffic does not exercise both of CPG's thresholds",
			crossPreempted, outPreempted)
	}
}
