package adversary

import (
	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/switchsim"
)

// IQLowerBound builds the classical (2 - 1/m)-ratio sequence against
// greedy unit-value schedulers on the IQ model (m queues of capacity 1),
// embedded into a CIOQ switch with one input port and m output ports,
// speedup 1 (the reduction in the paper's Section 1.2).
//
// Each phase spans 2m-1 slots: at the first slot every virtual output
// queue receives one packet; during the next m-1 slots one refill packet
// per slot targets the *last* queue in GM's row-major service order, which
// is still occupied for GM (so GM rejects all refills) but already served
// by the adversary's schedule. GM gains m per phase, OPT gains 2m-1.
//
// Use with Config{Inputs: 1, Outputs: m, InputBuf: 1, OutputBuf: >=1,
// Speedup: 1} and FitCfg returns exactly that.
func IQLowerBound(m, phases int) packet.Sequence {
	var seq packet.Sequence
	var id int64
	period := 2*m - 1
	for ph := 0; ph < phases; ph++ {
		base := ph * period
		for j := 0; j < m; j++ {
			seq = append(seq, packet.Packet{ID: id, Arrival: base, In: 0, Out: j, Value: 1})
			id++
		}
		for k := 1; k < m; k++ {
			seq = append(seq, packet.Packet{ID: id, Arrival: base + k, In: 0, Out: m - 1, Value: 1})
			id++
		}
	}
	return seq.Normalize()
}

// IQLowerBoundCfg returns the switch geometry IQLowerBound is designed
// for.
func IQLowerBoundCfg(m int) switchsim.Config {
	return switchsim.Config{
		Inputs: 1, Outputs: m,
		InputBuf: 1, OutputBuf: 1, CrossBuf: 1,
		Speedup: 1,
	}
}

// HotspotBursts stresses output contention: every `period` slots, all n
// inputs simultaneously send `burst` packets to output 0. With only one
// departure per slot, most of each burst must be buffered or lost; the
// offline optimum spreads admissions across the burst train.
func HotspotBursts(n, burst, period, rounds int, value packet.ValueDist) packet.Sequence {
	var seq packet.Sequence
	var id int64
	if value == nil {
		value = packet.UnitValues{}
	}
	src := rng.New(12345)
	for r := 0; r < rounds; r++ {
		t := r * period
		for i := 0; i < n; i++ {
			for b := 0; b < burst; b++ {
				seq = append(seq, packet.Packet{
					ID: id, Arrival: t, In: i, Out: 0, Value: value.Sample(src),
				})
				id++
			}
		}
	}
	return seq.Normalize()
}

// PreemptionChains targets the weighted algorithms' preemption machinery:
// each input port emits a geometrically increasing value chain (factor
// just above beta) into the same output, in bursts of two packets per slot
// so that buffers overflow and every new arrival preempts its predecessor.
// A preemptive policy keeps chasing the chain and realizes mostly the top
// values; the offline optimum schedules the chain so that intermediate
// values escape too.
func PreemptionChains(n int, beta float64, length int, burst int) packet.Sequence {
	var seq packet.Sequence
	var id int64
	for i := 0; i < n; i++ {
		chain := packet.GeometricChain(1, beta+0.01, length)
		for k, v := range chain {
			for b := 0; b < burst; b++ {
				seq = append(seq, packet.Packet{ID: id, Arrival: k, In: i, Out: 0, Value: v})
				id++
			}
		}
	}
	return seq.Normalize()
}

// DiagonalFlip alternates the traffic matrix between the identity
// permutation and an all-to-one hotspot every `period` slots, defeating
// schedulers whose pointers or orders adapt slowly.
func DiagonalFlip(n, period, rounds int) packet.Sequence {
	var seq packet.Sequence
	var id int64
	for r := 0; r < rounds; r++ {
		base := r * period
		for t := 0; t < period; t++ {
			for i := 0; i < n; i++ {
				out := i
				if r%2 == 1 {
					out = 0
				}
				seq = append(seq, packet.Packet{ID: id, Arrival: base + t, In: i, Out: out, Value: 1})
				id++
			}
		}
	}
	return seq.Normalize()
}
