package packet

import (
	"fmt"
	"math"
	"math/rand"
)

// BurstyBlocking generates backlogged-but-quiescent workload shapes: at
// each burst event, Fanin input ports send a line-rate train of Burst
// packets each, all converging on a single hot output, followed by a long
// geometric quiet gap (mean OffMean slots).
//
// On a switch with speedup ŝ ≥ 2 this is the canonical producer of
// quiescent drain states: during the burst the converging virtual output
// queues feed the hot output queue at up to ŝ packets per slot while it
// transmits only one, so when the input side empties a backlog of roughly
// (ŝ-1)/ŝ of the burst is still sitting in the output queue. The switch
// then spends many slots backlogged but with no eligible scheduling edge —
// exactly the stretch the engines' quiescent fast path advances in closed
// form (and, at ŝ = 1, the shape that keeps the input side busy longest,
// exercising the dense fallback). Pair it with a deep OutputBuf so the
// accumulated backlog is buffered rather than refused at the fabric.
//
// It draws event by event, each event's trains input by input, so it is
// not a SlotStreamer; GenerateInto draws it into the caller's storage,
// writing each packet straight at its (Arrival, ID) rank.
type BurstyBlocking struct {
	OffMean float64 // mean quiet gap between burst events in slots (>= 1)
	Burst   int     // packets per participating input per event (>= 1)
	Fanin   int     // inputs converging on the hot output; <= 0 or > inputs means all
	Values  ValueDist
}

// Name implements Generator.
func (g BurstyBlocking) Name() string {
	return fmt.Sprintf("burstyblocking(off=%.0f,burst=%d,fanin=%d,%s)",
		g.OffMean, g.Burst, g.Fanin, vname(g.Values))
}

// Generate implements Generator.
func (g BurstyBlocking) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return g.drawInto(nil, rng, inputs, outputs, slots)
}

// drawInto draws the events in time order and each event's values input
// by input, train by train, but writes every packet at its (Arrival, ID)
// rank: events never overlap (a gap of at least one slot follows each
// burst), so an event is one block of the sequence, laid out slot by slot
// with the inputs in train order, and the IDs are the positions.
func (g BurstyBlocking) drawInto(seq Sequence, rng *rand.Rand, inputs, outputs, slots int) Sequence {
	vd := orUnit(g.Values)
	off := math.Max(g.OffMean, 1)
	burst := g.Burst
	if burst < 1 {
		burst = 1
	}
	fanin := g.Fanin
	if fanin <= 0 || fanin > inputs {
		fanin = inputs
	}
	t := geometricGap(rng, off, slots)
	for t < slots {
		dest := rng.Intn(outputs)
		base := rng.Intn(inputs)
		rows := min(burst, slots-t) // the trains are cut at the horizon
		n := len(seq)
		seq = reserve(seq, fanin*rows, t, slots)[:n+fanin*rows]
		for f := 0; f < fanin; f++ {
			i := (base + f) % inputs
			for k := 0; k < rows; k++ {
				at := n + k*fanin + f
				seq[at] = Packet{ID: int64(at), Arrival: t + k, In: i, Out: dest, Value: vd.Sample(rng)}
			}
		}
		t += burst + geometricGap(rng, off, slots)
	}
	return seq
}
