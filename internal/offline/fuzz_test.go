package offline

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// FuzzSingleQueueOPT fuzzes the forward sweep against both retained
// oracles — the epoch-tree solver and the min-cost-flow reference — over
// random values, arrivals, buffer capacities, send rates and horizons.
// shape picks what the deterministic corpus never feeds the raw entry:
// bit 0 leaves the packets out of arrival order (the "order is free"
// contract), bit 1 makes all values equal (the path where no heap entry
// moves), bit 2 widens bufCap to the wide fleet shapes' few hundred, bit 3
// mixes in values <= 0. It runs as a 30s CI smoke on top of the corpus.
func FuzzSingleQueueOPT(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2), uint8(1), uint16(20), uint8(0))
	f.Add(int64(7), uint8(40), uint8(1), uint8(3), uint16(6), uint8(1))
	f.Add(int64(42), uint8(3), uint8(7), uint8(2), uint16(300), uint8(2))
	f.Add(int64(99), uint8(60), uint8(4), uint8(1), uint16(1), uint8(8))
	f.Add(int64(5), uint8(200), uint8(131), uint8(1), uint16(9), uint8(5))
	f.Add(int64(6), uint8(120), uint8(3), uint8(2), uint16(40), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nPkts, bufCap, sendCap uint8, horizon uint16, shape uint8) {
		slots := 1 + int(horizon)%400
		n := int(nPkts) % 64
		buf := 1 + int64(bufCap)%8
		if shape&4 != 0 {
			n, buf = 4*int(nPkts), 1+3*int64(bufCap)/2
		}
		send := 1 + int64(sendCap)%4
		rng := rand.New(rand.NewSource(seed))
		pkts := make([]packet.Packet, n)
		for k := range pkts {
			pkts[k] = packet.Packet{
				ID:      int64(k),
				Arrival: rng.Intn(slots + 8), // some packets beyond the horizon
				Value:   1 + rng.Int63n(50),
			}
			if shape&2 != 0 {
				pkts[k].Value = 7
			}
			if shape&8 != 0 && rng.Intn(4) == 0 {
				pkts[k].Value = -rng.Int63n(3)
			}
		}
		if shape&1 == 0 {
			slices.SortStableFunc(pkts, func(a, b packet.Packet) int { return cmp.Compare(a.Arrival, b.Arrival) })
		}
		var q QueueOPTSolver
		var ref refQueueOPTSolver
		got := q.Solve(pkts, slots, buf, send)
		epoch := ref.Solve(pkts, slots, buf, send)
		// The flow reference has no admissibility filter: a non-positive
		// value is a non-negative cost its shortest paths never take.
		flow := SingleQueueOPTFlow(pkts, slots, buf, send)
		if got != epoch || got != flow {
			t.Fatalf("slots=%d buf=%d send=%d: sweep %d, epoch trees %d, flow %d\npkts=%v",
				slots, buf, send, got, epoch, flow, pkts)
		}
	})
}

// FuzzCombinedUpperBound fuzzes the fused one-pass bound: random geometry,
// buffers, speedup, crossbar flag, horizon and generator seed, against the
// retained flow pipeline for the combined value and against the epoch-tree
// pipeline for each single side.
func FuzzCombinedUpperBound(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(1), uint8(0), uint8(12), false)
	f.Add(int64(2), uint8(5), uint8(3), uint8(2), uint8(3), uint8(40), true)
	f.Add(int64(3), uint8(1), uint8(7), uint8(3), uint8(5), uint8(25), false)
	f.Add(int64(4), uint8(7), uint8(1), uint8(0), uint8(6), uint8(60), true)
	f.Fuzz(func(t *testing.T, seed int64, inputs, outputs, speedup, gen, slots uint8, crossbar bool) {
		cfg := switchsim.Config{
			Inputs: 1 + int(inputs)%8, Outputs: 1 + int(outputs)%8,
			InputBuf: 1 + int(seed&3), OutputBuf: 1 + int(seed>>2&7), CrossBuf: 1 + int(seed>>5&1),
			Speedup: 1 + int(speedup)%4, Slots: 1 + int(slots)%80,
		}
		gens := diffGenerators()
		// Generate past the horizon so the horizon filter has work.
		seq := gens[int(gen)%len(gens)].Generate(rand.New(rand.NewSource(seed)), cfg.Inputs, cfg.Outputs, cfg.Slots+4)
		c := diffCase{cfg: cfg, seq: seq, crossbar: crossbar}
		var ref refQueueOPTSolver
		refOut, refIn := refCombinedUpperBound(&ref, c)
		want, err := CombinedUpperBoundFlow(cfg, seq, crossbar)
		if err != nil {
			t.Fatal(err)
		}
		if min(refOut, refIn) != want {
			t.Fatalf("cfg %+v crossbar=%v: epoch trees %d != flow %d\nseq=%v", cfg, crossbar, min(refOut, refIn), want, seq)
		}
		var s UpperBoundSolver
		for _, side := range []struct {
			name string
			f    func(switchsim.Config, packet.Sequence, bool) (int64, error)
			want int64
		}{
			{"combined", s.CombinedUpperBound, want},
			{"out", s.OQUpperBound, refOut},
			{"in", s.InputUpperBound, refIn},
		} {
			got, err := side.f(cfg, seq, crossbar)
			if err != nil {
				t.Fatal(err)
			}
			if got != side.want {
				t.Fatalf("cfg %+v crossbar=%v: %s %d != %d\nseq=%v", cfg, crossbar, side.name, got, side.want, seq)
			}
		}
	})
}
