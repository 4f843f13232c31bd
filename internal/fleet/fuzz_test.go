package fleet

import (
	"reflect"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// fuzzBatch decodes raw fuzz bytes into a batch of well-formed arrival
// sequences: the stream is dealt round-robin across instances, and within
// an instance each 4-byte group contributes one packet after a 0..255-slot
// gap, so batches mix dense bursts, long silences and unequal horizons.
func fuzzBatch(raw []byte, batch, inputs, outputs int) []packet.Sequence {
	seqs := make([]packet.Sequence, batch)
	slots := make([]int, batch)
	ids := make([]int64, batch)
	for k := 0; k+3 < len(raw); k += 4 {
		b := (k / 4) % batch
		slots[b] += int(raw[k])
		seqs[b] = append(seqs[b], packet.Packet{
			ID:      ids[b],
			Arrival: slots[b],
			In:      int(raw[k+1]) % inputs,
			Out:     int(raw[k+2]) % outputs,
			Value:   int64(raw[k+3]%100) + 1,
		})
		ids[b]++
	}
	return seqs
}

// FuzzFleetEquivalence feeds random batches (fuzzing the batch size along
// with geometry, speedup, buffer depths and sequence shape) through the
// columnar engine with Validate on — so the occupancy index, counters and
// conservation are cross-checked every slot and after every quiescent
// jump — and asserts fleet == scalar bit for bit, per instance, for CIOQ
// and crossbar kernels in both the unit and the weighted families. The
// high bit of each port byte flips that side of the geometry into the
// 65..72-port range, where PG runs on the multi-word wide engine and
// every other family on the scalar fallback.
func FuzzFleetEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add([]byte{255, 1, 2, 90, 200, 0, 1, 3, 0, 1, 1, 60}, uint8(3), uint8(3), uint8(2), uint8(2), uint8(3))
	f.Add([]byte{10, 0, 0, 1, 250, 1, 1, 99, 250, 2, 2, 5, 3, 0, 1, 7}, uint8(7), uint8(4), uint8(4), uint8(1), uint8(7))
	// Converging bursts then silence across a batch: quiescent drains at
	// different depths per instance.
	f.Add([]byte{5, 0, 0, 9, 0, 1, 0, 9, 0, 2, 0, 9, 0, 3, 0, 9, 1, 0, 0, 9, 0, 1, 0, 9, 0, 2, 0, 9, 0, 3, 0, 9},
		uint8(2), uint8(4), uint8(1), uint8(3), uint8(12))
	// Value ties into one full VOQ: preempt-vs-reject decisions in the
	// weighted family hinge on tail comparisons and ID tie-breaks.
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0, 42, 0, 0, 0, 9, 1, 0, 0, 99},
		uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	// Wide geometry on both sides (65x66 via the high bit), bursty enough
	// to cross word boundaries in the occupancy rows.
	f.Add([]byte{0, 1, 64, 80, 0, 64, 65, 70, 0, 65, 1, 70, 0, 2, 64, 9, 1, 64, 0, 9, 0, 3, 65, 50},
		uint8(2), uint8(129), uint8(130), uint8(2), uint8(2))
	// Wide inputs into narrow outputs: fan-in onto few outputs makes full
	// queues (and weighted preemption) common.
	f.Add([]byte{0, 9, 0, 80, 0, 70, 0, 70, 0, 30, 1, 70, 0, 2, 0, 90, 0, 64, 1, 95, 1, 5, 0, 50},
		uint8(3), uint8(135), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, nBatch, nIn, nOut, speedup, outBuf uint8) {
		batch := int(nBatch)%8 + 1
		inputs := int(nIn)%4 + 1
		if nIn&0x80 != 0 {
			inputs = 65 + int(nIn)%8
		}
		outputs := int(nOut)%4 + 1
		if nOut&0x80 != 0 {
			outputs = 65 + int(nOut)%8
		}
		cfg := switchsim.Config{
			Inputs: inputs, Outputs: outputs,
			InputBuf: 2, OutputBuf: int(outBuf)%16 + 1, CrossBuf: 1,
			Speedup:  int(speedup)%3 + 1,
			Validate: true, RecordLatency: true,
		}
		seqs := fuzzBatch(raw, batch, inputs, outputs)
		for b, seq := range seqs {
			if err := seq.Validate(inputs, outputs); err != nil {
				t.Fatalf("fuzzBatch built invalid sequence %d: %v", b, err)
			}
		}
		for name, mk := range map[string]func() switchsim.CIOQPolicy{
			// Rotating GM covers the clock-derived tick state; RoundRobin
			// covers the only persistent cross-slot kernel state (grant and
			// accept pointer lanes surviving quiescent sleep/wake cycles);
			// PG covers the weighted family (ByValue rings, preemptive
			// admission and transfers, greedy weighted matching).
			"gm-rotating": func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} },
			"roundrobin":  func() switchsim.CIOQPolicy { return &core.RoundRobin{} },
			"pg":          func() switchsim.CIOQPolicy { return &core.PG{} },
		} {
			rs, err := NewCIOQRunner(mk).Run(cfg, seqs)
			if err != nil {
				t.Fatalf("fleet cioq %s: %v", name, err)
			}
			for k, seq := range seqs {
				scalar, err := switchsim.RunCIOQ(cfg, mk(), seq)
				if err != nil {
					t.Fatalf("scalar cioq %s[%d]: %v", name, k, err)
				}
				if !reflect.DeepEqual(scalar.M, rs[k].M) {
					t.Errorf("cioq %s instance %d diverged:\nscalar: %+v\nfleet:  %+v", name, k, scalar.M, rs[k].M)
				}
			}
		}
		for name, mkX := range map[string]func() switchsim.CrossbarPolicy{
			"cgu-rotating": func() switchsim.CrossbarPolicy { return &core.CGU{RotatePick: true} },
			"cpg":          func() switchsim.CrossbarPolicy { return &core.CPG{} },
		} {
			rsX, err := NewCrossbarRunner(mkX).Run(cfg, seqs)
			if err != nil {
				t.Fatalf("fleet crossbar %s: %v", name, err)
			}
			for k, seq := range seqs {
				scalar, err := switchsim.RunCrossbar(cfg, mkX(), seq)
				if err != nil {
					t.Fatalf("scalar crossbar %s[%d]: %v", name, k, err)
				}
				if !reflect.DeepEqual(scalar.M, rsX[k].M) {
					t.Errorf("crossbar %s instance %d diverged:\nscalar: %+v\nfleet:  %+v", name, k, scalar.M, rsX[k].M)
				}
			}
		}
	})
}
