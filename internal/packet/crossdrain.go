package packet

import (
	"fmt"
	"math"
	"math/rand"
)

// CrossDrain generates crosspoint-drain-heavy workload shapes for
// buffered crossbars: at each fill event, every input sends a line-rate
// train that rotates through Sweep distinct outputs, repeated Depth
// times, followed by a long geometric quiet gap (mean OffMean slots).
//
// The rotation is conflict-free when inputs <= outputs — within any slot
// the inputs target distinct outputs (wider fan-in geometries
// reintroduce contention, which only deepens the crosspoint backlog) —
// so on a buffered crossbar the input side drains
// into the crosspoint matrix almost immediately: each input's transfer
// subphase faces no fan-in contention and every packet lands in its own
// crosspoint queue. What remains when the input queues are empty is a
// dense crosspoint occupancy of up to Inputs x Sweep queues holding
// Depth packets each, which the output subphase must then drain at one
// packet per output per cycle. The quiet gap that follows is therefore
// spent almost entirely in crosspoint drain — the regime where the
// crossbar engines' per-output crosspoint scans, not admission or input
// matching, dominate the slot cost. Pair Depth > 1 with CrossBuf >=
// Depth so the stacked packets are buffered rather than refused (or
// preempted, in the weighted disciplines) at the fabric.
//
// On a CIOQ switch the same trace is a benign all-to-all load, so it
// also serves as a fabric-contrast workload between the two geometries.
//
// It draws event by event (an event's gap is drawn after its packets), so
// it is not a SlotStreamer; its draw order is already (Arrival, ID) order,
// and GenerateInto draws it into the caller's storage with no sort.
type CrossDrain struct {
	OffMean float64 // mean quiet gap between fill events in slots (>= 1)
	Sweep   int     // distinct outputs each input visits per rotation; <= 0 or > outputs means all
	Depth   int     // rotations per event: packets stacked per crosspoint (>= 1)
	Values  ValueDist
}

// Name implements Generator.
func (g CrossDrain) Name() string {
	return fmt.Sprintf("crossdrain(off=%.0f,sweep=%d,depth=%d,%s)",
		g.OffMean, g.Sweep, g.Depth, vname(g.Values))
}

// Generate implements Generator.
func (g CrossDrain) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return g.drawInto(nil, rng, inputs, outputs, slots)
}

// drawInto draws slot by slot within an event and events in time order,
// none overlapping the next, so draw order is already (Arrival, ID) order
// and the IDs are the positions.
func (g CrossDrain) drawInto(seq Sequence, rng *rand.Rand, inputs, outputs, slots int) Sequence {
	vd := orUnit(g.Values)
	off := math.Max(g.OffMean, 1)
	sweep := g.Sweep
	if sweep <= 0 || sweep > outputs {
		sweep = outputs
	}
	depth := g.Depth
	if depth < 1 {
		depth = 1
	}
	t := geometricGap(rng, off, slots)
	for t < slots {
		// Random phase so the visited output set varies across events when
		// sweep < outputs.
		phase := rng.Intn(outputs)
		// depth rotations through sweep outputs, cut at the horizon.
		span := min(depth*sweep, slots-t)
		seq = reserve(seq, span*inputs, t, slots)
		for s := 0; s < span; s++ {
			k := s % sweep
			for i := 0; i < inputs; i++ {
				seq = append(seq, Packet{ID: int64(len(seq)), Arrival: t + s, In: i,
					Out: (phase + i + k) % outputs, Value: vd.Sample(rng)})
			}
		}
		t += depth*sweep + geometricGap(rng, off, slots)
	}
	return seq
}
