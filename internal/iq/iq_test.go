package iq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

func iqSeq(seed int64, m, slots int, load float64, hi int64) packet.Sequence {
	rng := rand.New(rand.NewSource(seed))
	var vd packet.ValueDist = packet.UnitValues{}
	if hi > 1 {
		vd = packet.UniformValues{Hi: hi}
	}
	// Single input port: reuse the Bernoulli generator with 1 input.
	return packet.Bernoulli{Load: load, Values: vd}.Generate(rng, 1, m, slots)
}

func TestRunBasics(t *testing.T) {
	seq := packet.Sequence{
		{ID: 0, Arrival: 0, Out: 0, Value: 1},
		{ID: 1, Arrival: 0, Out: 1, Value: 1},
		{ID: 2, Arrival: 1, Out: 0, Value: 1},
	}
	res, err := Run(2, 2, &Greedy{}, seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 3 || res.Benefit != 3 {
		t.Errorf("sent=%d benefit=%d, want 3,3", res.Sent, res.Benefit)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(0, 1, &Greedy{}, nil, 0); err == nil {
		t.Error("m=0 accepted")
	}
	bad := packet.Sequence{{ID: 0, Out: 5, Value: 1}}
	if _, err := Run(2, 1, &Greedy{}, bad, 0); err == nil {
		t.Error("out-of-range queue accepted")
	}
}

func TestExactOPTKnownCases(t *testing.T) {
	t.Run("one packet", func(t *testing.T) {
		seq := packet.Sequence{{ID: 0, Arrival: 0, Out: 0, Value: 7}}
		got, err := ExactOPT(2, 1, seq, 0)
		if err != nil || got != 7 {
			t.Errorf("got %d err %v", got, err)
		}
	})
	t.Run("service is one per slot", func(t *testing.T) {
		// 4 packets at t=0 into 4 queues, horizon 2: only 2 can go.
		var seq packet.Sequence
		for j := 0; j < 4; j++ {
			seq = append(seq, packet.Packet{ID: int64(j), Arrival: 0, Out: j, Value: 1})
		}
		got, err := ExactOPT(4, 1, seq, 2)
		if err != nil || got != 2 {
			t.Errorf("got %d err %v, want 2", got, err)
		}
	})
	t.Run("buffer bound forces choice", func(t *testing.T) {
		// One queue, B=1: two same-slot packets, keep the big one.
		seq := packet.Sequence{
			{ID: 0, Arrival: 0, Out: 0, Value: 3},
			{ID: 1, Arrival: 0, Out: 0, Value: 8},
		}
		got, err := ExactOPT(1, 1, seq, 0)
		if err != nil || got != 8 {
			t.Errorf("got %d err %v, want 8", got, err)
		}
	})
}

// TestExactOPTAgainstCIOQDP cross-checks the IQ optimum against the CIOQ
// exact DPs on the reduction geometry (1 input, speedup 1): two completely
// independent exact solvers must agree, on unit values and on values up
// to 10. The weighted DP takes at most two outputs and refuses B = 2
// reductions, and some 6-slot ones, as too large, so its pass runs m = 2
// over 5 slots, and both passes stay at B = 1.
func TestExactOPTAgainstCIOQDP(t *testing.T) {
	for _, pass := range []struct {
		name  string
		seeds int64
		ms    int64 // m cycles through 2 .. 1+ms
		slots int
		hi    int64
		exact func(switchsim.Config, packet.Sequence) (int64, error)
	}{
		{"unit", 20, 2, 6, 1, offline.ExactUnitCIOQ},
		{"weighted", 30, 1, 5, 10, offline.ExactWeightedCIOQ},
	} {
		for seed := int64(0); seed < pass.seeds; seed++ {
			m := 2 + int(seed%pass.ms)
			seq := iqSeq(seed, m, pass.slots, 1.5, pass.hi)
			iqOPT, err := ExactOPT(m, 1, seq, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := switchsim.Config{Inputs: 1, Outputs: m, InputBuf: 1, OutputBuf: 1,
				CrossBuf: 1, Speedup: 1}
			cioqOPT, err := pass.exact(cfg, seq)
			if err != nil {
				t.Fatalf("%s seed %d: %v", pass.name, seed, err)
			}
			if iqOPT != cioqOPT {
				t.Errorf("%s seed %d: IQ OPT %d != CIOQ DP OPT %d", pass.name, seed, iqOPT, cioqOPT)
			}
		}
	}
}

// TestGMReductionEquivalence is the paper's conclusion made executable:
// on a 1-input CIOQ switch with speedup 1, GM (row-major) collapses to
// the IQ first-non-empty greedy policy — benefits must match exactly.
func TestGMReductionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		m := 2 + int(seed%3)
		seq := iqSeq(seed, m, 8, 1.8, 1)
		iqRes, err := Run(m, 1, &Greedy{Order: FirstNonEmpty}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := switchsim.Config{Inputs: 1, Outputs: m, InputBuf: 1, OutputBuf: 1,
			CrossBuf: 1, Speedup: 1, Validate: true}
		gmRes, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		if iqRes.Benefit != gmRes.M.Benefit {
			t.Errorf("seed %d m=%d: IQ greedy %d != GM %d",
				seed, m, iqRes.Benefit, gmRes.M.Benefit)
		}
	}
}

// TestGreedyIsTwoCompetitive fuzzes the classical bound: any greedy
// serve order stays within factor 2 of the exact optimum on unit values.
func TestGreedyIsTwoCompetitive(t *testing.T) {
	orders := []ServeOrder{LongestFirst, FirstNonEmpty, RoundRobinOrder}
	for seed := int64(0); seed < 40; seed++ {
		m := 2 + int(seed%3)
		b := 1 + int(seed%3)
		seq := iqSeq(seed, m, 8, 2.0, 1)
		opt, err := ExactOPT(m, b, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt == 0 {
			continue
		}
		for _, ord := range orders {
			res, err := Run(m, b, &Greedy{Order: ord}, seq, 0)
			if err != nil {
				t.Fatal(err)
			}
			if float64(opt) > 2*float64(res.Benefit)+1e-9 {
				t.Errorf("seed %d order %v: ratio %.3f exceeds 2",
					seed, ord, float64(opt)/float64(res.Benefit))
			}
		}
	}
}

// TestTLHIsThreeCompetitive fuzzes the Azar–Richter bound for weighted
// packets against the exact optimum.
func TestTLHIsThreeCompetitive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := 2 + int(seed%3)
		b := 1 + int(seed%3)
		seq := iqSeq(seed, m, 8, 1.5, 20)
		opt, err := ExactOPT(m, b, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt == 0 {
			continue
		}
		res, err := Run(m, b, &TLH{}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if float64(opt) > 3*float64(res.Benefit)+1e-9 {
			t.Errorf("seed %d: TLH ratio %.3f exceeds 3",
				seed, float64(opt)/float64(res.Benefit))
		}
	}
}

// TestMaxHeadDominatesTLHOnAverage: the non-FIFO freedom can only help a
// value-greedy policy; across seeds the ByValue variant should not lose.
func TestMaxHeadDominatesTLHOnAverage(t *testing.T) {
	var tlhTotal, maxTotal int64
	for seed := int64(0); seed < 30; seed++ {
		seq := iqSeq(seed, 3, 10, 1.8, 50)
		tlh, err := Run(3, 2, &TLH{}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		mh, err := Run(3, 2, &MaxHead{}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		tlhTotal += tlh.Benefit
		maxTotal += mh.Benefit
	}
	if maxTotal < tlhTotal {
		t.Errorf("MaxHead total %d below TLH total %d", maxTotal, tlhTotal)
	}
}

// Property: the exact optimum never exceeds the total offered value and
// never falls below any policy's benefit.
func TestExactOPTSandwich(t *testing.T) {
	f := func(seed int64) bool {
		m := 2 + int(uint64(seed)%3)
		b := 1 + int(uint64(seed)%2)
		seq := iqSeq(seed, m, 6, 1.5, 10)
		opt, err := ExactOPT(m, b, seq, 0)
		if err != nil {
			return false
		}
		if opt > seq.TotalValue() {
			return false
		}
		for _, pol := range []Policy{&Greedy{}, &TLH{}, &MaxHead{}} {
			res, err := Run(m, b, pol, seq, 0)
			if err != nil {
				return false
			}
			if res.Benefit > opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, pol := range []Policy{
		&Greedy{}, &Greedy{Order: FirstNonEmpty}, &Greedy{Order: RoundRobinOrder},
		&TLH{}, &MaxHead{},
	} {
		if pol.Name() == "" || names[pol.Name()] {
			t.Errorf("bad or duplicate name %q", pol.Name())
		}
		names[pol.Name()] = true
	}
}
