package packet

import (
	"fmt"
	"math/rand"
)

// Generator produces a reproducible arrival sequence for a switch with the
// given port geometry over a number of time slots.
type Generator interface {
	// Name identifies the generator configuration for reports.
	Name() string
	// Generate produces the sequence. The result is normalized: sorted by
	// (Arrival, ID) with IDs 0..n-1.
	Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence
}

// Bernoulli is the classical uniform i.i.d. traffic model: in every slot,
// each input port receives a packet with probability Load, destined to a
// uniformly random output. Load is the per-input offered load; Load=1 means
// one packet per input per slot on average.
//
// Load may exceed 1: a value of, e.g., 2.5 draws floor(2.5) packets plus one
// more with probability 0.5 per input per slot, modeling overload bursts.
type Bernoulli struct {
	Load   float64
	Values ValueDist
}

// Name implements Generator.
func (g Bernoulli) Name() string {
	return fmt.Sprintf("bernoulli(load=%.2f,%s)", g.Load, vname(g.Values))
}

// Generate implements Generator.
func (g Bernoulli) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer.
func (g Bernoulli) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return &bernoulliSource{g: g, vd: orUnit(g.Values), rng: rng, inputs: inputs, outputs: outputs}
}

type bernoulliSource struct {
	g               Bernoulli
	vd              ValueDist
	rng             *rand.Rand
	inputs, outputs int
}

// NextBusy implements SlotSource: every slot draws.
func (s *bernoulliSource) NextBusy(t int) int { return t }

func (s *bernoulliSource) AppendSlot(dst Sequence, t int) Sequence {
	for i := 0; i < s.inputs; i++ {
		n := wholeArrivals(s.rng, s.g.Load)
		for k := 0; k < n; k++ {
			dst = append(dst, Packet{
				Arrival: t, In: i,
				Out:   s.rng.Intn(s.outputs),
				Value: s.vd.Sample(s.rng),
			})
		}
	}
	return dst
}

// Hotspot sends a fraction HotFrac of each input's traffic to output
// HotOut and spreads the rest uniformly. Hotspot traffic is the classical
// stress test for output contention in switches.
type Hotspot struct {
	Load    float64
	HotOut  int
	HotFrac float64
	Values  ValueDist
}

// Name implements Generator.
func (g Hotspot) Name() string {
	return fmt.Sprintf("hotspot(load=%.2f,out=%d,frac=%.2f,%s)", g.Load, g.HotOut, g.HotFrac, vname(g.Values))
}

// Generate implements Generator.
func (g Hotspot) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer.
func (g Hotspot) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return &hotspotSource{g: g, vd: orUnit(g.Values), rng: rng, inputs: inputs, outputs: outputs}
}

type hotspotSource struct {
	g               Hotspot
	vd              ValueDist
	rng             *rand.Rand
	inputs, outputs int
}

// NextBusy implements SlotSource: every slot draws.
func (s *hotspotSource) NextBusy(t int) int { return t }

func (s *hotspotSource) AppendSlot(dst Sequence, t int) Sequence {
	for i := 0; i < s.inputs; i++ {
		n := wholeArrivals(s.rng, s.g.Load)
		for k := 0; k < n; k++ {
			out := s.g.HotOut % s.outputs
			if s.rng.Float64() >= s.g.HotFrac {
				out = s.rng.Intn(s.outputs)
			}
			dst = append(dst, Packet{Arrival: t, In: i, Out: out, Value: s.vd.Sample(s.rng)})
		}
	}
	return dst
}

// Diagonal concentrates traffic near the diagonal of the traffic matrix:
// input i sends to output i with probability 1-OffFrac and to (i+1) mod M
// otherwise. Diagonal traffic is hard for matching-based schedulers because
// the matrix is already (almost) a permutation, leaving no slack.
type Diagonal struct {
	Load    float64
	OffFrac float64
	Values  ValueDist
}

// Name implements Generator.
func (g Diagonal) Name() string {
	return fmt.Sprintf("diagonal(load=%.2f,off=%.2f,%s)", g.Load, g.OffFrac, vname(g.Values))
}

// Generate implements Generator.
func (g Diagonal) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer.
func (g Diagonal) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return &diagonalSource{g: g, vd: orUnit(g.Values), rng: rng, inputs: inputs, outputs: outputs}
}

type diagonalSource struct {
	g               Diagonal
	vd              ValueDist
	rng             *rand.Rand
	inputs, outputs int
}

// NextBusy implements SlotSource: every slot draws.
func (s *diagonalSource) NextBusy(t int) int { return t }

func (s *diagonalSource) AppendSlot(dst Sequence, t int) Sequence {
	for i := 0; i < s.inputs; i++ {
		n := wholeArrivals(s.rng, s.g.Load)
		for k := 0; k < n; k++ {
			out := i % s.outputs
			if s.rng.Float64() < s.g.OffFrac {
				out = (i + 1) % s.outputs
			}
			dst = append(dst, Packet{Arrival: t, In: i, Out: out, Value: s.vd.Sample(s.rng)})
		}
	}
	return dst
}

// Bursty is a two-state (ON/OFF) Markov-modulated arrival process per
// input port. In the ON state an input receives a packet each slot with
// probability OnLoad; in OFF, no packets arrive. Destinations are drawn
// from a per-burst hotspot: each burst picks one output and sends the
// whole burst there, which models flow-level burstiness (trains of packets
// from one flow share a destination). This is the deliberately non-Poisson
// workload motivated by the paper's introduction.
type Bursty struct {
	OnLoad  float64 // arrival probability per slot while ON
	POnOff  float64 // probability of switching ON -> OFF each slot
	POffOn  float64 // probability of switching OFF -> ON each slot
	Values  ValueDist
	Uniform bool // if true, draw a fresh destination per packet instead of per burst
}

// Name implements Generator.
func (g Bursty) Name() string {
	return fmt.Sprintf("bursty(on=%.2f,p10=%.2f,p01=%.2f,%s)", g.OnLoad, g.POnOff, g.POffOn, vname(g.Values))
}

// Generate implements Generator.
func (g Bursty) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer. The per-input Markov chains start in
// their stationary distribution, drawn here so the construction-time RNG
// consumption matches a materializing Generate exactly.
func (g Bursty) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	on := make([]bool, inputs)
	dest := make([]int, inputs)
	for i := range on {
		// Start in the stationary distribution of the chain.
		pi := g.POffOn / (g.POffOn + g.POnOff)
		if g.POffOn+g.POnOff == 0 {
			pi = 0.5
		}
		on[i] = rng.Float64() < pi
		dest[i] = rng.Intn(outputs)
	}
	return &burstySource{g: g, vd: orUnit(g.Values), rng: rng, outputs: outputs, on: on, dest: dest}
}

type burstySource struct {
	g       Bursty
	vd      ValueDist
	rng     *rand.Rand
	outputs int
	on      []bool
	dest    []int
}

// NextBusy implements SlotSource: every slot draws, ON or OFF.
func (s *burstySource) NextBusy(t int) int { return t }

func (s *burstySource) AppendSlot(dst Sequence, t int) Sequence {
	for i := range s.on {
		if s.on[i] {
			if s.rng.Float64() < s.g.OnLoad {
				out := s.dest[i]
				if s.g.Uniform {
					out = s.rng.Intn(s.outputs)
				}
				dst = append(dst, Packet{Arrival: t, In: i, Out: out, Value: s.vd.Sample(s.rng)})
			}
			if s.rng.Float64() < s.g.POnOff {
				s.on[i] = false
			}
		} else {
			if s.rng.Float64() < s.g.POffOn {
				s.on[i] = true
				s.dest[i] = s.rng.Intn(s.outputs) // new burst, new destination
			}
		}
	}
	return dst
}

// Permutation applies a fixed random permutation traffic pattern: input i
// always sends to π(i), with one packet per slot with probability Load.
// Permutation traffic is the friendliest pattern for a crossbar (a perfect
// matching exists every cycle), so it isolates scheduling overhead from
// contention effects.
type Permutation struct {
	Load   float64
	Values ValueDist
}

// Name implements Generator.
func (g Permutation) Name() string {
	return fmt.Sprintf("permutation(load=%.2f,%s)", g.Load, vname(g.Values))
}

// Generate implements Generator.
func (g Permutation) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer. The permutation is drawn up front, as a
// materializing Generate does.
func (g Permutation) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return &permutationSource{g: g, vd: orUnit(g.Values), rng: rng,
		inputs: inputs, outputs: outputs, perm: rng.Perm(outputs)}
}

type permutationSource struct {
	g               Permutation
	vd              ValueDist
	rng             *rand.Rand
	inputs, outputs int
	perm            []int
}

// NextBusy implements SlotSource: every slot draws.
func (s *permutationSource) NextBusy(t int) int { return t }

func (s *permutationSource) AppendSlot(dst Sequence, t int) Sequence {
	for i := 0; i < s.inputs; i++ {
		n := wholeArrivals(s.rng, s.g.Load)
		for k := 0; k < n; k++ {
			dst = append(dst, Packet{Arrival: t, In: i, Out: s.perm[i%s.outputs], Value: s.vd.Sample(s.rng)})
		}
	}
	return dst
}

// Fixed wraps a pre-built sequence as a Generator, ignoring the rng and
// geometry. It lets hand-crafted adversarial sequences flow through the
// same harness as random workloads.
type Fixed struct {
	Label string
	Seq   Sequence
}

// Name implements Generator.
func (g Fixed) Name() string { return "fixed(" + g.Label + ")" }

// Generate implements Generator.
func (g Fixed) Generate(_ *rand.Rand, _, _, _ int) Sequence { return g.Seq.Clone() }

// wholeArrivals converts a possibly fractional load into an integral number
// of arrivals: floor(load) certain packets plus one more with probability
// frac(load).
func wholeArrivals(rng *rand.Rand, load float64) int {
	if load <= 0 {
		return 0
	}
	n := int(load)
	if rng.Float64() < load-float64(n) {
		n++
	}
	return n
}

func orUnit(v ValueDist) ValueDist {
	if v == nil {
		return UnitValues{}
	}
	return v
}

func vname(v ValueDist) string { return orUnit(v).Name() }
