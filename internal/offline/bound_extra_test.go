package offline

import (
	"math/rand"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// InputUpperBound is the input-side counterpart of OQUpperBound: each
// input port i is relaxed to a single time-expanded queue holding all of
// its virtual output queues (capacity M·B_in [+ M·B_x]), drained at the
// fabric rate of ŝ transfers per slot, with transferred value counting as
// delivered (outputs fully relaxed). Any feasible schedule maps into this
// relaxation, so it is another valid upper bound — tight when the fabric,
// not the output links, is the bottleneck.
func InputUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	var s UpperBoundSolver
	return s.InputUpperBound(cfg, seq, crossbar)
}

// InputUpperBound is the input-side relaxation; see the package function.
func (s *UpperBoundSolver) InputUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	_, in, err := s.sweep(cfg, seq, crossbar, false, true)
	return in, err
}

func TestInputUpperBoundDominatesExact(t *testing.T) {
	cfg := microCfg()
	for seed := int64(0); seed < 20; seed++ {
		seq := unitSeq(seed, 6, 1.3)
		opt, err := ExactUnitCIOQ(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := InputUpperBound(cfg, seq, false)
		if err != nil {
			t.Fatal(err)
		}
		if ib < opt {
			t.Errorf("seed %d: input bound %d below exact OPT %d", seed, ib, opt)
		}
	}
}

func TestCombinedUpperBoundIsValidAndTighter(t *testing.T) {
	cfg := microCfg()
	for seed := int64(0); seed < 20; seed++ {
		seq := weightedSeq(seed, 4, 0.8, 10)
		opt, err := ExactWeightedCIOQ(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := CombinedUpperBound(cfg, seq, false)
		if err != nil {
			t.Fatal(err)
		}
		out, err := OQUpperBound(cfg, seq, false)
		if err != nil {
			t.Fatal(err)
		}
		in, err := InputUpperBound(cfg, seq, false)
		if err != nil {
			t.Fatal(err)
		}
		if comb < opt {
			t.Errorf("seed %d: combined bound %d below exact OPT %d", seed, comb, opt)
		}
		if comb > out || comb > in {
			t.Errorf("seed %d: combined %d exceeds a component (out %d, in %d)",
				seed, comb, out, in)
		}
	}
}

func TestInputBoundTightWhenFabricIsBottleneck(t *testing.T) {
	// One input port feeding many outputs at speedup 1: the fabric
	// limits throughput to 1 packet/slot, which the input-side bound
	// captures and the output-side bound misses entirely.
	cfg := switchsim.Config{Inputs: 1, Outputs: 8, InputBuf: 4, OutputBuf: 4,
		CrossBuf: 1, Speedup: 1, Slots: 10}
	var ps []packet.Packet
	for k := 0; k < 64; k++ {
		ps = append(ps, packet.Packet{ID: int64(k), Arrival: k % 4, In: 0, Out: k % 8, Value: 1})
	}
	seq := packet.Sequence(ps).Normalize()
	in, err := InputUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OQUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	if in >= out {
		t.Errorf("input bound %d should be tighter than output bound %d here", in, out)
	}
	// Fabric allows at most Slots transfers in total.
	if in > int64(cfg.Slots) {
		t.Errorf("input bound %d exceeds fabric capacity %d", in, cfg.Slots)
	}
}

func TestInputBoundScalesWithSpeedup(t *testing.T) {
	cfg := switchsim.Config{Inputs: 1, Outputs: 4, InputBuf: 4, OutputBuf: 4,
		CrossBuf: 1, Speedup: 1, Slots: 8}
	var ps []packet.Packet
	for k := 0; k < 32; k++ {
		ps = append(ps, packet.Packet{ID: int64(k), Arrival: 0, In: 0, Out: k % 4, Value: 1})
	}
	seq := packet.Sequence(ps).Normalize()
	ib1, err := InputUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speedup = 2
	ib2, err := InputUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	if ib2 < ib1 {
		t.Errorf("input bound not monotone in speedup: %d -> %d", ib1, ib2)
	}
	if ib2 <= ib1 {
		t.Logf("note: speedup did not strictly increase the bound (%d vs %d)", ib1, ib2)
	}
}

func TestCombinedBoundAgainstAllPolicies(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1, Validate: true}
	rng := rand.New(rand.NewSource(77))
	seq := packet.Hotspot{Load: 1.5, HotFrac: 0.5, Values: packet.UniformValues{Hi: 30}}.
		Generate(rng, 3, 3, 15)
	comb, err := CombinedUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []switchsim.CIOQPolicy{&core.GM{}, &core.PG{}, &core.KRMWM{}, &core.ARFIFO{}} {
		res, err := switchsim.RunCIOQ(cfg, pol, seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Benefit > comb {
			t.Errorf("%s benefit %d exceeds combined bound %d", pol.Name(), res.M.Benefit, comb)
		}
	}
}
