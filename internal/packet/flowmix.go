package packet

import (
	"fmt"
	"math/rand"
)

// FlowMix is a flow-level stateful traffic generator in the spirit of
// SmartNIC traffic models: each input port carries a mix of short "rat"
// flows and long "elephant" flows, new flows open at a stage-varying rate,
// and every open flow emits one packet per slot toward its flow destination
// until its remaining-packet budget is spent. The resulting traffic has
// flow-level burstiness (packet trains sharing a destination), a
// heavy/light size mix, and a configurable intensity profile over time —
// none of which the i.i.d. Bernoulli family reproduces.
//
// The process is slot-major (all draws for slot t happen before slot t+1),
// so FlowMix implements SlotStreamer and streams in memory proportional to
// the open-flow state: at most MaxActive flows per input, independent of
// the horizon. That makes it the flagship workload for the streaming
// engines — a 10⁹-slot FlowMix trace needs a few kilobytes of generator
// state.
//
// Flow openings per input follow a Bernoulli(rate) process per slot,
// sampled by geometric inter-opening gaps when the stage rate is below 1
// (one draw per opening instead of one per slot; gaps are redrawn at stage
// boundaries, which the geometric's memorylessness makes exactly equivalent
// to slot-by-slot sampling under the time-varying rate). Rates of 1 and
// above fall back to one wholeArrivals draw per input per slot. Per opened
// flow the draw order is a type draw (elephant with probability
// ElephantFrac) then a destination draw; then one value draw per emitted
// packet, oldest flow first. Flows beyond MaxActive are not opened (the
// arrival process is load-shedding, not queued), which bounds both memory
// and the per-input offered load.
//
// Idle stretches on sparse mixes cost nothing, for the generator and for
// its consumer: while no flow is open, NextBusy names the earliest pending
// opening or the next stage boundary, whichever comes first, and the driver
// jumps there. A stage boundary is always a busy slot, even into a silent
// stage: the redraw sets the stage's rate and window and anchors every new
// gap (one RNG draw each) at the slot it runs on, so it must run on exactly
// the boundary slot for the sequence to match slot-by-slot sampling.
type FlowMix struct {
	// FlowRate is the mean number of new flows opened per input per slot
	// at stage intensity 1. The mean per-input packet load is roughly
	// FlowRate times the mean flow size.
	FlowRate float64
	// ElephantFrac is the probability a new flow is an elephant.
	ElephantFrac float64
	// RatPackets and ElephantPackets are the per-flow packet budgets
	// (minimum 1 each).
	RatPackets      int
	ElephantPackets int
	// Stages is the cyclic intensity profile: the flow-opening rate during
	// stage s is FlowRate * Stages[s]. Empty means a flat profile of 1.
	Stages []float64
	// StageSlots is how many slots each stage lasts (default 1000).
	StageSlots int
	// MaxActive caps the concurrently open flows per input (default 256).
	MaxActive int
	Values    ValueDist
}

// Defaults mirror the CPS/PPS mixes of the SmartNIC literature: 20%
// elephants of 64 packets among rats of 4, a daily-profile stage list
// with unit mean, and kilo-slot stages.
const (
	defaultRatPackets      = 4
	defaultElephantPackets = 64
	defaultStageSlots      = 1000
	defaultMaxActive       = 256
)

// defaultStages rises to a midday plateau and falls back; its mean is
// exactly 1 so the realized load tracks the requested FlowRate.
func defaultStages() []float64 {
	return []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.25, 1.0, 0.75, 0.5, 0.5}
}

// Name implements Generator.
func (g FlowMix) Name() string {
	return fmt.Sprintf("flowmix(rate=%.4f,efrac=%.2f,e=%d,r=%d,stages=%d,%s)",
		g.FlowRate, g.elephantFrac(), g.elephantPackets(), g.ratPackets(),
		len(g.stages()), vname(g.Values))
}

func (g FlowMix) elephantFrac() float64 {
	if g.ElephantFrac <= 0 {
		return 0.2
	}
	return g.ElephantFrac
}

func (g FlowMix) ratPackets() int {
	if g.RatPackets < 1 {
		return defaultRatPackets
	}
	return g.RatPackets
}

func (g FlowMix) elephantPackets() int {
	if g.ElephantPackets < 1 {
		return defaultElephantPackets
	}
	return g.ElephantPackets
}

func (g FlowMix) stages() []float64 {
	if len(g.Stages) == 0 {
		return defaultStages()
	}
	return g.Stages
}

func (g FlowMix) stageSlots() int {
	if g.StageSlots < 1 {
		return defaultStageSlots
	}
	return g.StageSlots
}

func (g FlowMix) maxActive() int {
	if g.MaxActive < 1 {
		return defaultMaxActive
	}
	return g.MaxActive
}

// MeanFlowSize returns the expected packets per flow under the configured
// mix; FlowMixForLoad uses it to translate an offered load into a flow
// rate.
func (g FlowMix) MeanFlowSize() float64 {
	ef := g.elephantFrac()
	return ef*float64(g.elephantPackets()) + (1-ef)*float64(g.ratPackets())
}

// FlowMixForLoad builds a default-mix FlowMix whose mean per-input packet
// load is approximately `load` (by Little's law the mean number of open
// flows — each emitting one packet per slot — is FlowRate times the mean
// flow size). It is the single source of truth behind the registry's
// "flowmix" spelling and the qswitch facade constructor.
func FlowMixForLoad(load float64, dist ValueDist) FlowMix {
	g := FlowMix{Values: dist}
	g.FlowRate = load / g.MeanFlowSize()
	return g
}

// Generate implements Generator.
func (g FlowMix) Generate(rng *rand.Rand, inputs, outputs, slots int) Sequence {
	return GenerateInto(nil, g, rng, inputs, outputs, slots)
}

// flow is one open flow's residual state.
type flow struct {
	out       int
	remaining int
}

// Source implements SlotStreamer.
func (g FlowMix) Source(rng *rand.Rand, inputs, outputs int) SlotSource {
	return &flowMixSource{
		g: g, vd: orUnit(g.Values), rng: rng, outputs: outputs,
		stages: g.stages(), stageSlots: g.stageSlots(), maxActive: g.maxActive(),
		rat: g.ratPackets(), elephant: g.elephantPackets(), efrac: g.elephantFrac(),
		active: make([][]flow, inputs), nextOpen: make([]int, inputs),
	}
}

type flowMixSource struct {
	g          FlowMix
	vd         ValueDist
	rng        *rand.Rand
	outputs    int
	stages     []float64
	stageSlots int
	maxActive  int
	rat        int
	elephant   int
	efrac      float64
	active     [][]flow // per input, in flow-open order
	open       int      // flows open across all inputs

	// Current stage window, cached so the per-slot cost is a comparison
	// instead of two integer divisions (felt on 10⁸-slot streamed runs).
	rate     float64 // FlowRate * stage multiplier for the current window
	stageEnd int     // first slot of the next stage window
	perSlot  bool    // rate >= 1: one wholeArrivals draw per input per slot
	nextOpen []int   // gap mode: per input, the next slot an opening fires
}

// NextBusy implements SlotSource. With a flow open every slot emits, in
// per-slot mode every slot draws, and a due stage boundary must run on
// slot t itself; otherwise nothing happens before the earliest pending
// opening or the next boundary. AppendSlot leaves every nextOpen entry past
// the slot it ran on, so the minimum is never behind t.
func (s *flowMixSource) NextBusy(t int) int {
	if s.perSlot || s.open > 0 || t >= s.stageEnd {
		return t
	}
	next := s.stageEnd
	for _, o := range s.nextOpen {
		if o < next {
			next = o
		}
	}
	return next
}

func (s *flowMixSource) AppendSlot(dst Sequence, t int) Sequence {
	if t >= s.stageEnd {
		win := t / s.stageSlots
		s.rate = s.g.FlowRate * s.stages[win%len(s.stages)]
		s.stageEnd = (win + 1) * s.stageSlots
		s.perSlot = s.rate >= 1
		if !s.perSlot {
			// Redraw every pending wait under the new rate. Geometric gaps
			// are memoryless, so restarting at the boundary reproduces the
			// per-slot Bernoulli process exactly; the -1 lets an opening
			// fire on the boundary slot itself.
			for i := range s.nextOpen {
				if s.rate <= 0 {
					s.nextOpen[i] = s.stageEnd // silent stage: no openings
				} else {
					s.nextOpen[i] = t + geometricGap(s.rng, 1/s.rate, s.stageSlots) - 1
				}
			}
		}
	}
	for i := range s.active {
		// Open new flows at the stage-modulated rate, respecting the
		// active-flow cap.
		var n int
		if s.perSlot {
			n = wholeArrivals(s.rng, s.rate)
		} else if t == s.nextOpen[i] {
			n = 1
			s.nextOpen[i] = t + geometricGap(s.rng, 1/s.rate, s.stageSlots)
		}
		if n == 0 && len(s.active[i]) == 0 {
			continue // nothing open, nothing opening: skip the emit scan
		}
		for k := 0; k < n && len(s.active[i]) < s.maxActive; k++ {
			f := flow{out: 0, remaining: s.rat}
			if s.rng.Float64() < s.efrac {
				f.remaining = s.elephant
			}
			f.out = s.rng.Intn(s.outputs)
			s.active[i] = append(s.active[i], f)
			s.open++
		}
		// Every open flow emits one packet this slot; finished flows are
		// compacted out in place, preserving open order.
		flows := s.active[i]
		live := flows[:0]
		for _, f := range flows {
			dst = append(dst, Packet{Arrival: t, In: i, Out: f.out, Value: s.vd.Sample(s.rng)})
			f.remaining--
			if f.remaining > 0 {
				live = append(live, f)
			}
		}
		s.open -= len(flows) - len(live)
		s.active[i] = live
	}
	return dst
}
