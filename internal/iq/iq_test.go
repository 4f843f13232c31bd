package iq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
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

// TestExactOPTRejectsBadInput: no queues, no room, or a packet at an
// input other than 0 or a queue out of range is an error.
func TestExactOPTRejectsBadInput(t *testing.T) {
	ok := packet.Sequence{{ID: 0, Out: 1, Value: 1}}
	for _, c := range []iqCase{
		{m: 0, b: 1, seq: ok},
		{m: 2, b: 0, seq: ok},
		{m: 2, b: 1, seq: packet.Sequence{{ID: 0, Out: 2, Value: 1}}},
		{m: 2, b: 1, seq: packet.Sequence{{ID: 0, In: 1, Value: 1}}},
	} {
		if _, err := ExactOPT(c.m, c.b, c.seq, 0); err == nil {
			t.Errorf("m=%d b=%d seq=%v accepted", c.m, c.b, c.seq)
		}
	}
}

// TestLargestHeadIdleCycle: a cycle with no eligible queue transfers
// nothing.
func TestLargestHeadIdleCycle(t *testing.T) {
	sw := switchsim.NewCIOQ(Reduction(3, 1, 0), queue.FIFO, queue.FIFO)
	if ts := (&LargestHead{}).Schedule(sw, 0, 0); len(ts) != 0 {
		t.Errorf("empty switch: transfers %v", ts)
	}
}

// runReduction runs pol on the IQ model's CIOQ reduction with validation
// on and returns the counters the reference simulator keeps.
func runReduction(t *testing.T, m, b int, pol switchsim.CIOQPolicy, seq packet.Sequence, slots int) refResult {
	t.Helper()
	cfg := Reduction(m, b, slots)
	cfg.Validate = true
	res, err := switchsim.RunCIOQ(cfg, pol, seq)
	if err != nil {
		t.Fatalf("%s on m=%d b=%d: %v", pol.Name(), m, b, err)
	}
	return refResult{res.M.Arrived, res.M.Accepted, res.M.Rejected, res.M.PreemptedInput, res.M.Sent, res.M.Benefit}
}

// runRef runs pol on the reference IQ simulator.
func runRef(t *testing.T, m, b int, pol refPolicy, seq packet.Sequence, slots int) refResult {
	t.Helper()
	res, err := refRun(m, b, pol, seq, slots)
	if err != nil {
		t.Fatal(err)
	}
	return *res
}

// e16Shapes are E16's (m, B) geometries.
var e16Shapes = [][2]int{{4, 2}, {16, 4}, {32, 8}}

// TestGMReductionEquivalence is the paper's conclusion made executable:
// on a 1-input CIOQ switch with speedup 1, GM (row-major) collapses to
// the IQ first-non-empty greedy policy — benefits must match exactly.
func TestGMReductionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		m := 2 + int(seed%3)
		seq := iqSeq(seed, m, 8, 1.8, 1)
		want := runRef(t, m, 1, &refGreedy{firstNonEmpty: true}, seq, 0)
		if got := runReduction(t, m, 1, &core.GM{}, seq, 0); got.Benefit != want.Benefit {
			t.Errorf("seed %d m=%d: IQ greedy %d != GM %d", seed, m, want.Benefit, got.Benefit)
		}
	}
}

// TestReductionMatchesIQOracle runs E16's four policies on the reduction
// and on the reference IQ simulator over E16's shapes, its load and unit,
// uniform and zipf values: every counter must agree. Equal heads are
// common under all three value classes, so it catches a LargestHead that
// breaks their ties by queue index instead of packet ID.
func TestReductionMatchesIQOracle(t *testing.T) {
	pairs := []struct {
		pol switchsim.CIOQPolicy
		ref refPolicy
	}{
		{&core.GM{Order: core.LongestFirst}, &refGreedy{}},
		{&core.GM{}, &refGreedy{firstNonEmpty: true}},
		{&LargestHead{}, &refLargestHead{queue.FIFO}},
		{&LargestHead{ByValue: true}, &refLargestHead{queue.ByValue}},
	}
	const slots = 200
	for _, geom := range e16Shapes {
		m, b := geom[0], geom[1]
		for _, vd := range []packet.ValueDist{packet.UnitValues{}, packet.UniformValues{Hi: 50}, packet.ZipfValues{Hi: 50, S: 1.2}} {
			for seed := int64(1); seed <= 4; seed++ {
				seq := packet.Bernoulli{Load: 1.8, Values: vd}.Generate(rand.New(rand.NewSource(seed)), 1, m, slots)
				for _, pr := range pairs {
					want := runRef(t, m, b, pr.ref, seq, slots+2*m)
					if got := runReduction(t, m, b, pr.pol, seq, slots+2*m); got != want {
						t.Errorf("%s m=%d b=%d %s seed %d: reduction %+v, IQ reference %+v",
							pr.pol.Name(), m, b, vd.Name(), seed, got, want)
					}
				}
			}
		}
	}
}

// TestPGReductionEquivalence states when PG collapses to the value-ordered
// LargestHead on the reduction: with pairwise distinct values both send
// the most valuable packet in the switch every slot. Equal heads part
// them, since PG breaks the tie by queue index and LargestHead by packet
// ID.
func TestPGReductionEquivalence(t *testing.T) {
	t.Run("distinct values", func(t *testing.T) {
		const slots = 60
		for _, geom := range e16Shapes {
			m, b := geom[0], geom[1]
			for seed := int64(1); seed <= 10; seed++ {
				r := rand.New(rand.NewSource(seed))
				seq := packet.Bernoulli{Load: 1.8, Values: packet.UnitValues{}}.Generate(r, 1, m, slots)
				for k, v := range r.Perm(len(seq)) {
					seq[k].Value = int64(1 + v)
				}
				pg := runReduction(t, m, b, &core.PG{}, seq, slots+2*m)
				if lh := runReduction(t, m, b, &LargestHead{ByValue: true}, seq, slots+2*m); pg != lh {
					t.Errorf("m=%d b=%d seed %d: PG %+v, LargestHead %+v", m, b, seed, pg, lh)
				}
			}
		}
	})
	t.Run("equal heads", func(t *testing.T) {
		// Two value-5 heads at slot 0: PG sends queue 0's (packet 1),
		// LargestHead packet 0 from queue 1. A value-9 arrival to queue 1
		// then preempts PG's waiting 5 but finds room under LargestHead.
		seq := packet.Sequence{
			{ID: 0, Arrival: 0, Out: 1, Value: 5},
			{ID: 1, Arrival: 0, Out: 0, Value: 5},
			{ID: 2, Arrival: 1, Out: 1, Value: 9},
		}
		pg := runReduction(t, 2, 1, &core.PG{}, seq, 0)
		lh := runReduction(t, 2, 1, &LargestHead{ByValue: true}, seq, 0)
		if pg.Benefit != 14 || lh.Benefit != 19 {
			t.Errorf("benefits PG %d, LargestHead %d; want 14 and 19", pg.Benefit, lh.Benefit)
		}
	})
}

// TestGreedyIsTwoCompetitive fuzzes the classical bound: GM on the
// reduction, in any serve order, stays within factor 2 of the exact
// optimum on unit values.
func TestGreedyIsTwoCompetitive(t *testing.T) {
	orders := []core.EdgeOrder{core.LongestFirst, core.RowMajor, core.Rotating}
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
			res := runReduction(t, m, b, &core.GM{Order: ord}, seq, 0)
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
		res := runReduction(t, m, b, &LargestHead{}, seq, 0)
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
		tlhTotal += runReduction(t, 3, 2, &LargestHead{}, seq, 0).Benefit
		maxTotal += runReduction(t, 3, 2, &LargestHead{ByValue: true}, seq, 0).Benefit
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
		for _, pol := range []switchsim.CIOQPolicy{&core.GM{Order: core.LongestFirst}, &LargestHead{}, &LargestHead{ByValue: true}} {
			if runReduction(t, m, b, pol, seq, 0).Benefit > opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
