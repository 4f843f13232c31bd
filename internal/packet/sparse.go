package packet

import (
	"fmt"
	"math"
	"math/rand"
)

// Sparse workload generators. The Bernoulli-family generators above model
// heavy sustained traffic; the generators in this file model the opposite
// regime — long idle stretches punctuated by activity — which is the
// natural shape of adversarial sequences (the paper's lower-bound
// constructions inject short bursts separated by draining gaps) and the
// regime the event-driven simulator fast path is built for.

// PoissonBurst is an on/off renewal process per input port: idle gaps with
// geometrically distributed length (mean OffMean slots) alternate with
// bursts whose size is Poisson-distributed around BurstMean (minimum 1).
// A burst delivers one packet per slot, all to a single per-burst
// destination, modeling a flow's packet train arriving at line rate after
// a long silence. The per-input offered load is roughly
// BurstMean/(OffMean+BurstMean), so large OffMean values give arbitrarily
// sparse traces. Each input's timeline is drawn whole before the next
// input's, so it is not a SlotStreamer; GenerateInto draws it into the
// caller's storage and sorts it once across inputs.
type PoissonBurst struct {
	OffMean   float64 // mean idle gap in slots (>= 1)
	BurstMean float64 // mean burst size in packets
	Values    ValueDist
}

// Name implements Generator.
func (g PoissonBurst) Name() string {
	return fmt.Sprintf("poissonburst(off=%.0f,burst=%.1f,%s)", g.OffMean, g.BurstMean, vname(g.Values))
}

// Generate implements Generator.
func (g PoissonBurst) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return g.drawInto(nil, rng, inputs, outputs, slots)
}

// drawInto draws input by input, numbering IDs in draw order, and sorts
// once across inputs.
func (g PoissonBurst) drawInto(seq Sequence, rng *rand.Rand, inputs, outputs, slots int) Sequence {
	vd := orUnit(g.Values)
	off := math.Max(g.OffMean, 1)
	for i := 0; i < inputs; i++ {
		t := geometricGap(rng, off, slots)
		for t < slots {
			n := poisson(rng, g.BurstMean)
			if n < 1 {
				n = 1
			}
			dest := rng.Intn(outputs)
			n = min(n, slots-t)
			seq = reserve(seq, n, i*slots+t, inputs*slots)
			for k := 0; k < n; k++ {
				seq = append(seq, Packet{ID: int64(len(seq)), Arrival: t, In: i, Out: dest, Value: vd.Sample(rng)})
				t++
			}
			t += geometricGap(rng, off, slots)
		}
	}
	return seq.Normalize()
}

// Diurnal is Bernoulli traffic whose offered load follows a sinusoidal
// day/night cycle: load(t) = Load·max(0, 1 + Amplitude·sin(2πt/Period)).
// With Amplitude >= 1 the troughs go fully silent, producing the
// quiet-hours gaps of real ingress traffic at a configurable duty cycle.
type Diurnal struct {
	Load      float64 // mean per-input load at the cycle midpoint
	Period    int     // cycle length in slots (>= 2)
	Amplitude float64 // modulation depth; >= 1 silences the troughs
	Values    ValueDist
}

// Name implements Generator.
func (g Diurnal) Name() string {
	return fmt.Sprintf("diurnal(load=%.3f,period=%d,amp=%.2f,%s)", g.Load, g.Period, g.Amplitude, vname(g.Values))
}

// Generate implements Generator.
func (g Diurnal) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// Source implements SlotStreamer: the sinusoidal load depends only on the
// slot number, so the process is slot-major and streams with no lookahead.
// Silent trough slots consume no RNG draws at all, and NextBusy lets the
// driver jump a whole trough in one step.
func (g Diurnal) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return g.source(new(scratch), rng, inputs, outputs)
}

func (g Diurnal) source(sc *scratch, rng *rand.Rand, inputs, outputs int) SlotSource {
	period := g.Period
	if period < 2 {
		period = 2
	}
	s := &sc.diurnal
	// A scratch source that last drew the same curve keeps its tables.
	same := s.loads != nil && s.period == period && s.g.Load == g.Load && s.g.Amplitude == g.Amplitude
	*s = diurnalSource{g: g, vd: orUnit(g.Values), rng: rng, inputs: inputs, outputs: outputs,
		period: period, loads: s.loads, skip: s.skip}
	// The load curve depends only on t mod period, so for sane periods it
	// is precomputed once: on a 10⁸-slot streamed horizon the per-slot Sin
	// would otherwise dominate the whole simulation. Identical values
	// either way — the table is a cache, not an approximation.
	switch {
	case period > 1<<20:
		s.loads, s.skip = nil, nil
	case !same:
		s.loads = resize(s.loads, period)
		silent := false
		for t := range s.loads {
			s.loads[t] = s.loadAt(t)
			silent = silent || s.loads[t] <= 0
		}
		s.skip = nil
		if silent {
			s.skip = troughSkips(s.loads)
		}
	}
	return s
}

// troughSkips returns, per phase of the cycle, how many slots ahead the next
// phase with a positive load lies (0 on a positive phase, wrapping around
// the cycle), or -1 throughout when the whole cycle is silent.
func troughSkips(loads []float64) []int32 {
	n := len(loads)
	skip := make([]int32, n)
	d := int32(-1)
	// Backwards over two cycles: the first carries the distance across the
	// wrap-around, the second writes the final values.
	for k := 2*n - 1; k >= 0; k-- {
		switch {
		case !(loads[k%n] <= 0): // the test AppendSlot applies, NaN included
			d = 0
		case d >= 0:
			d++
		}
		skip[k%n] = d
	}
	return skip
}

type diurnalSource struct {
	g               Diurnal
	vd              ValueDist
	rng             *rand.Rand
	inputs, outputs int
	period          int
	loads           []float64 // load per t mod period; nil for huge periods
	skip            []int32   // slots to the next positive load per t mod period; nil if none is silent
}

func (s *diurnalSource) loadAt(t int) float64 {
	return s.g.Load * (1 + s.g.Amplitude*math.Sin(2*math.Pi*float64(t%s.period)/float64(s.period)))
}

// NextBusy implements SlotSource: a slot whose load is not positive draws
// nothing, so the troughs are skipped from the table. Without one (no
// silent phase, or a period too large to tabulate) every slot is offered.
func (s *diurnalSource) NextBusy(t int) int {
	if s.skip == nil {
		return t
	}
	d := s.skip[t%s.period]
	if d < 0 {
		return math.MaxInt
	}
	return t + int(d)
}

func (s *diurnalSource) AppendSlot(dst Sequence, t int) Sequence {
	var load float64
	if s.loads != nil {
		load = s.loads[t%s.period]
	} else {
		load = s.loadAt(t)
	}
	if load <= 0 {
		return dst
	}
	for i := 0; i < s.inputs; i++ {
		n := wholeArrivals(s.rng, load)
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

// HeavyTail draws per-input interarrival gaps from a discretized Pareto
// distribution with shape Alpha and minimum gap MinGap: most gaps are
// short, but the tail produces occasional very long silences — the
// self-similar traffic profile classical Poisson models miss. Alpha in
// (1,2] gives finite mean but wildly variable gaps. Like PoissonBurst it
// draws input by input; GenerateInto draws it into the caller's storage
// and sorts it once across inputs.
type HeavyTail struct {
	Alpha  float64 // Pareto shape (> 0); smaller = heavier tail
	MinGap float64 // minimum interarrival gap in slots (>= 1)
	Values ValueDist
}

// Name implements Generator.
func (g HeavyTail) Name() string {
	return fmt.Sprintf("heavytail(alpha=%.2f,min=%.0f,%s)", g.Alpha, g.MinGap, vname(g.Values))
}

// Generate implements Generator.
func (g HeavyTail) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return g.drawInto(nil, rng, inputs, outputs, slots)
}

// drawInto draws input by input, numbering IDs in draw order, and sorts
// once across inputs.
func (g HeavyTail) drawInto(seq Sequence, rng *rand.Rand, inputs, outputs, slots int) Sequence {
	vd := orUnit(g.Values)
	alpha := g.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	minGap := math.Max(g.MinGap, 1)
	for i := 0; i < inputs; i++ {
		t := paretoGap(rng, alpha, minGap) - 1 // first arrival may be early
		for t < slots {
			seq = reserve(seq, 1, i*slots+t, inputs*slots)
			seq = append(seq, Packet{ID: int64(len(seq)), Arrival: t, In: i, Out: rng.Intn(outputs), Value: vd.Sample(rng)})
			t += paretoGap(rng, alpha, minGap)
		}
	}
	return seq.Normalize()
}

// geometricGap draws an integer gap >= 1 with the given mean: one plus
// the number of failures before the first success of a Bernoulli(1/mean)
// trial, sampled by inverse transform in O(1) regardless of the mean.
// Draws are capped at max+1 (beyond any caller's horizon), which also
// covers degenerate means (+Inf, NaN) where the success probability
// rounds to zero or NaN.
func geometricGap(rng *rand.Rand, mean float64, max int) int {
	p := 1 / mean
	if p >= 1 {
		return 1
	}
	u := rng.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	g := 1 + math.Log(u)/math.Log(1-p)
	// Beyond the horizon, or degenerate p (0 gives -Inf, NaN propagates):
	// either way the gap outlives any caller's horizon.
	if !(g >= 1 && g < float64(max)+1) {
		return max + 1
	}
	return int(g)
}

// poisson draws a Poisson(lambda) variate: Knuth's product method for
// small means, and a rounded normal approximation for large ones (the
// product method's exp(-lambda) limit underflows to zero near
// lambda ≈ 746, silently clamping results there).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		k := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	limit := math.Exp(-lambda)
	k, prod := 0, rng.Float64()
	for prod > limit {
		k++
		prod *= rng.Float64()
	}
	return k
}

// paretoGap draws a discretized Pareto(alpha, xmin) gap, >= ceil(xmin).
func paretoGap(rng *rand.Rand, alpha, xmin float64) int {
	u := rng.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	g := xmin * math.Pow(u, -1/alpha)
	// Cap pathological tail draws so one sample cannot swallow the horizon.
	if g > 1e9 {
		g = 1e9
	}
	return int(math.Ceil(g))
}
