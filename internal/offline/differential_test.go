package offline

import (
	"fmt"
	"math/rand"
	"testing"

	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// The forward sweep must return values exactly equal to both retained
// oracles — the epoch-tree solver it replaced (reference_test.go) and the
// min-cost-flow reference — on every instance: the same bit-identical
// differential discipline that gated the engine fast paths (PR 1–4),
// applied to the judge layer.

// diffGenerators is the full workload generator family.
func diffGenerators() []packet.Generator {
	return []packet.Generator{
		packet.Bernoulli{Load: 1.3},
		packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 40}},
		packet.Hotspot{Load: 1.5, HotFrac: 0.8, Values: packet.TwoValued{Alpha: 30, PHigh: 0.3}},
		packet.Bursty{OnLoad: 1.2, POnOff: 0.3, POffOn: 0.2},
		packet.PoissonBurst{OffMean: 30, BurstMean: 4, Values: packet.GeometricValues{P: 0.4, Hi: 64}},
		packet.Diurnal{Load: 0.8, Period: 40, Amplitude: 1.0},
		packet.HeavyTail{Alpha: 1.4, MinGap: 6, Values: packet.UniformValues{Hi: 12}},
		packet.BurstyBlocking{OffMean: 25, Burst: 6, Fanin: 3},
	}
}

// diffConfigs spans geometries, buffer depths, speedups and horizons,
// including fabric-bottlenecked shapes where the input-side bound binds.
func diffConfigs() []switchsim.Config {
	return []switchsim.Config{
		{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 12},
		{Inputs: 4, Outputs: 4, InputBuf: 1, OutputBuf: 4, CrossBuf: 2, Speedup: 2, Slots: 40},
		{Inputs: 3, Outputs: 5, InputBuf: 3, OutputBuf: 1, CrossBuf: 1, Speedup: 1, Slots: 25},
		{Inputs: 8, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 3, Slots: 64},
		{Inputs: 4, Outputs: 4, InputBuf: 4, OutputBuf: 8, CrossBuf: 2, Speedup: 1, Slots: 200},
	}
}

// diffCase is one instance of the differential corpus.
type diffCase struct {
	name     string
	cfg      switchsim.Config
	seq      packet.Sequence
	crossbar bool
}

// diffCorpus is the generator × config × seed corpus plus the fixed
// suite's fleet_montecarlo shapes (16×16×64 unit values at load 1.2;
// 64×64×16 at speedup 2, weighted, load 1.5 — relaxed capacities 260/388),
// each config under CIOQ or crossbar capacities.
func diffCorpus() []diffCase {
	var cases []diffCase
	for gi, gen := range diffGenerators() {
		for ci, cfg := range diffConfigs() {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(1000*int64(gi) + seed))
				cases = append(cases, diffCase{
					name:     fmt.Sprintf("gen %s cfg %d seed %d", gen.Name(), ci, seed),
					cfg:      cfg,
					seq:      gen.Generate(rng, cfg.Inputs, cfg.Outputs, cfg.Slots),
					crossbar: (ci+int(seed))%2 == 1,
				})
			}
		}
	}
	unit16 := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 64}
	wide64 := switchsim.Config{Inputs: 64, Outputs: 64, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 2, Slots: 16}
	for _, crossbar := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			cases = append(cases,
				diffCase{fmt.Sprintf("unit16 seed %d", seed), unit16,
					packet.Bernoulli{Load: 1.2}.Generate(rand.New(rand.NewSource(seed)), 16, 16, 64), crossbar},
				diffCase{fmt.Sprintf("wide64 seed %d", seed), wide64,
					packet.Bernoulli{Load: 1.5, Values: packet.UniformValues{Hi: 100}}.
						Generate(rand.New(rand.NewSource(seed)), 64, 64, 16), crossbar})
		}
	}
	return cases
}

// refCombinedUpperBound is CombinedUpperBound as it was before the fused
// sweep: partition into per-port buckets, one epoch-tree solve per bucket.
func refCombinedUpperBound(q *refQueueOPTSolver, c diffCase) (out, in int64) {
	byOut := make([][]packet.Packet, c.cfg.Outputs)
	byIn := make([][]packet.Packet, c.cfg.Inputs)
	partition(c.seq, c.cfg.Slots, byOut, byIn)
	outCap, inCap := relaxedCaps(c.cfg, c.crossbar)
	for _, b := range byOut {
		out += q.Solve(b, c.cfg.Slots, outCap, 1)
	}
	for _, b := range byIn {
		in += q.Solve(b, c.cfg.Slots, inCap, int64(c.cfg.Speedup))
	}
	return out, in
}

// TestSingleQueueOPTMatchesFlowReference pins the sweep, the epoch-tree
// solver and the MCMF reference exactly equal on every per-port relaxation
// instance of the corpus, at both relaxation capacities and send rates.
func TestSingleQueueOPTMatchesFlowReference(t *testing.T) {
	var q QueueOPTSolver
	var ref refQueueOPTSolver
	for _, c := range diffCorpus() {
		byOut := make([][]packet.Packet, c.cfg.Outputs)
		byIn := make([][]packet.Packet, c.cfg.Inputs)
		partition(c.seq, c.cfg.Slots, byOut, byIn)
		outCap, inCap := relaxedCaps(c.cfg, c.crossbar)
		check := func(side string, buckets [][]packet.Packet, bufCap, sendCap int64) {
			for k, b := range buckets {
				got := q.Solve(b, c.cfg.Slots, bufCap, sendCap)
				epoch := ref.Solve(b, c.cfg.Slots, bufCap, sendCap)
				flow := SingleQueueOPTFlow(b, c.cfg.Slots, bufCap, sendCap)
				if got != epoch || got != flow {
					t.Fatalf("%s %s %d: sweep %d, epoch trees %d, flow %d",
						c.name, side, k, got, epoch, flow)
				}
			}
		}
		check("out", byOut, outCap, 1)
		check("in", byIn, inCap, int64(c.cfg.Speedup))
	}
}

// TestUpperBoundsMatchFlowReference pins the full bound pipeline — one
// reused solver judging the whole corpus, the package-level one-shot
// functions, the epoch-tree pipeline and the retained flow reference —
// exactly equal, and the single-side entry points equal to their sides.
func TestUpperBoundsMatchFlowReference(t *testing.T) {
	var reused UpperBoundSolver
	var ref refQueueOPTSolver
	for _, c := range diffCorpus() {
		want, err := CombinedUpperBoundFlow(c.cfg, c.seq, c.crossbar)
		if err != nil {
			t.Fatal(err)
		}
		refOut, refIn := refCombinedUpperBound(&ref, c)
		if min(refOut, refIn) != want {
			t.Fatalf("%s: epoch trees %d != flow reference %d", c.name, min(refOut, refIn), want)
		}
		got, err := CombinedUpperBound(c.cfg, c.seq, c.crossbar)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: combined %d != flow reference %d", c.name, got, want)
		}
		// The reused solver must be history-independent: same value no
		// matter what it judged before, on whichever sides.
		for _, side := range []struct {
			name string
			f    func(switchsim.Config, packet.Sequence, bool) (int64, error)
			want int64
		}{
			{"combined", reused.CombinedUpperBound, want},
			{"out", reused.OQUpperBound, refOut},
			{"in", reused.InputUpperBound, refIn},
		} {
			again, err := side.f(c.cfg, c.seq, c.crossbar)
			if err != nil {
				t.Fatal(err)
			}
			if again != side.want {
				t.Fatalf("%s: reused solver %s %d != %d", c.name, side.name, again, side.want)
			}
		}
	}
}

// TestJudgeProbesMatchEpochReference pins probe parity: over the whole
// corpus the fused sweep's one flush per bound call leaves the counters
// exactly where the epoch-tree pipeline's one RecordSolve per bucket left
// them — solves, packets and distinct arrival slots.
func TestJudgeProbesMatchEpochReference(t *testing.T) {
	snapshot := func(judge func(diffCase)) [3]int64 {
		reg := obs.NewRegistry()
		p := obs.NewJudgeProbes(reg)
		SetProbes(p)
		defer SetProbes(nil)
		for _, c := range diffCorpus() {
			judge(c)
		}
		return [3]int64{p.Solves.Value(), p.Packets.Value(), p.Epochs.Value()}
	}
	var ref refQueueOPTSolver
	want := snapshot(func(c diffCase) { refCombinedUpperBound(&ref, c) })
	var s UpperBoundSolver
	got := snapshot(func(c diffCase) {
		if _, err := s.CombinedUpperBound(c.cfg, c.seq, c.crossbar); err != nil {
			t.Fatal(err)
		}
	})
	if got != want || want[0] == 0 || want[2] == 0 {
		t.Errorf("solves/packets/epochs: sweep %v, epoch reference %v", got, want)
	}
	// Single-side calls tally their side only; together they are one
	// combined call.
	sides := snapshot(func(c diffCase) {
		s.OQUpperBound(c.cfg, c.seq, c.crossbar)
		s.InputUpperBound(c.cfg, c.seq, c.crossbar)
	})
	if sides != want {
		t.Errorf("solves/packets/epochs: single sides %v, epoch reference %v", sides, want)
	}
}

// TestSweepHugeHorizonNoPerSlotWork judges arrival gaps and a horizon near
// 2^40 slots at send rate 4: sendCap·gap must not overflow into a wrong
// answer, and the solve must not walk the slots (it would not finish).
func TestSweepHugeHorizonNoPerSlotWork(t *testing.T) {
	const far = 1 << 40
	pkts := []packet.Packet{
		{Arrival: 0, Value: 5}, {Arrival: 0, Value: 9}, {Arrival: 0, Value: 1}, // buffer 2: the 1 is evicted
		{Arrival: far, Value: 7}, {Arrival: far, Value: 3},
		{Arrival: 2 * far, Value: 2}, {Arrival: 2*far + 1, Value: 4}, {Arrival: 2*far + 1, Value: 6},
		{Arrival: 3 * far, Value: 100}, // at the horizon: never arrives
	}
	for k := range pkts {
		pkts[k].ID = int64(k)
	}
	var q QueueOPTSolver
	if got, want := q.Solve(pkts, 3*far, 2, 4), int64(5+9+7+3+2+4+6); got != want {
		t.Errorf("sendCap 4: got %d, want %d", got, want)
	}
	// One send a slot: slot 2·far sends the 2; the next slot holds {4, 6}
	// after arrivals and drains them long before the horizon.
	if got, want := q.Solve(pkts, 3*far, 2, 1), int64(5+9+7+3+2+4+6); got != want {
		t.Errorf("sendCap 1: got %d, want %d", got, want)
	}
	// Horizon one slot after the last burst: the 2 left a slot earlier,
	// and the single remaining send takes the 6.
	if got, want := q.Solve(pkts, 2*far+2, 2, 1), int64(5+9+7+3+2+6); got != want {
		t.Errorf("tight horizon: got %d, want %d", got, want)
	}
	// The fused bound on the same trace: a 1×1 switch, relaxed capacities
	// 2 (out) and 1 (in), send rates 1 and 4.
	cfg := switchsim.Config{Inputs: 1, Outputs: 1, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 4, Slots: 3 * far}
	got, err := CombinedUpperBound(cfg, pkts, false)
	if err != nil {
		t.Fatal(err)
	}
	var ref refQueueOPTSolver
	if want := min(ref.Solve(pkts, cfg.Slots, 2, 1), ref.Solve(pkts, cfg.Slots, 1, 4)); got != want {
		t.Errorf("fused bound %d != epoch reference %d", got, want)
	}
}

// TestSingleQueueOPTUnsortedAndEdgeCases covers inputs the partitioned
// paths never produce but the exported API accepts: unsorted arrivals,
// horizon-clipped packets, and degenerate capacities.
func TestSingleQueueOPTUnsortedAndEdgeCases(t *testing.T) {
	pkts := []packet.Packet{
		{ID: 0, Arrival: 7, Value: 9},
		{ID: 1, Arrival: 0, Value: 5},
		{ID: 2, Arrival: 7, Value: 2},
		{ID: 3, Arrival: 3, Value: 4},
		{ID: 4, Arrival: 12, Value: 50}, // beyond horizon
	}
	if got, want := SingleQueueOPT(pkts, 10, 2), SingleQueueOPTFlow(pkts, 10, 2, 1); got != want {
		t.Errorf("unsorted: %d != %d", got, want)
	}
	var q QueueOPTSolver
	if got := q.Solve(pkts, 0, 2, 1); got != 0 {
		t.Errorf("zero horizon: got %d", got)
	}
	if got := q.Solve(pkts, 10, 0, 1); got != 0 {
		t.Errorf("zero buffer: got %d", got)
	}
	if got := q.Solve(pkts, 10, 2, 0); got != 0 {
		t.Errorf("zero send rate: got %d", got)
	}
	if got := q.Solve(nil, 10, 2, 1); got != 0 {
		t.Errorf("no packets: got %d", got)
	}
}
