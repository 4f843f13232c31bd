package packet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refGenerateEverySlot is the every-slot driver the production loop
// replaced: AppendSlot for each t in [0, slots), NextBusy never consulted.
// It exists only here, as the oracle the jumping loop (synthesize) is held
// to: the two must emit the same packets and leave the RNG in the same
// state.
func refGenerateEverySlot(src SlotSource, slots int) Sequence {
	var seq Sequence
	var id int64
	for t := 0; t < slots; t++ {
		n := len(seq)
		seq = src.AppendSlot(seq, t)
		for k := n; k < len(seq); k++ {
			seq[k].ID = id
			id++
		}
	}
	return seq.Normalize()
}

// skipCase is one generator configuration with the horizons it is run at.
type skipCase struct {
	gen      SlotStreamer
	horizons []int
}

// skipCatalog covers all seven SlotStreamers, with FlowMix variants that
// reach every NextBusy branch and Diurnal on both sides of a silent trough.
func skipCatalog() []skipCase {
	windowEdges := []int{0, 1, 255, 256, 257, 3000}
	return []skipCase{
		{Bernoulli{Load: 0.7, Values: UniformValues{Hi: 50}}, []int{0, 1, 300}},
		{Hotspot{Load: 0.5, HotFrac: 0.6, Values: ZipfValues{Hi: 100, S: 1.2}}, []int{300}},
		{Diagonal{Load: 0.4, OffFrac: 0.2}, []int{300}},
		{Bursty{OnLoad: 0.9, POnOff: 0.3, POffOn: 0.05, Values: TwoValued{Alpha: 20, PHigh: 0.1}}, []int{300}},
		{Permutation{Load: 0.6}, []int{300}},

		// Amplitude 0.5 has no silent phase (no skip table), 1 touches zero
		// on a single phase, 2 silences a third of the cycle. Period 700 is
		// longer than the stream window, so whole windows fall in a trough.
		{Diurnal{Load: 0.3, Period: 700, Amplitude: 0.5}, []int{2500}},
		{Diurnal{Load: 0.3, Period: 700, Amplitude: 1}, []int{2500}},
		{Diurnal{Load: 0.3, Period: 700, Amplitude: 2, Values: UniformValues{Hi: 9}}, windowEdges},
		// A cycle with no positive phase at all: NextBusy has nowhere to go.
		{Diurnal{Load: 0, Period: 50, Amplitude: 2}, []int{0, 400}},

		// Default stages (gap mode throughout, redraws every 1000 slots).
		{FlowMix{FlowRate: 0.002, Values: UniformValues{Hi: 10}}, append([]int{12_345}, windowEdges...)},
		// A silent stage between live ones: nextOpen parks on the boundary.
		{FlowMix{FlowRate: 0.01, Stages: []float64{1, 0, 0.5}, StageSlots: 300}, []int{4000}},
		// A stage at rate >= 1 (perSlot) between gap-mode stages.
		{FlowMix{FlowRate: 0.4, Stages: []float64{0.01, 3, 0.01}, StageSlots: 40, RatPackets: 2, ElephantPackets: 5}, []int{500}},
		// Every slot a stage boundary; then a stage length coprime to the
		// window, over a horizon that is not a multiple of it.
		{FlowMix{FlowRate: 0.05, StageSlots: 1}, []int{600}},
		{FlowMix{FlowRate: 0.01, StageSlots: 7, Values: UniformValues{Hi: 10}}, []int{1000}},
		// The open-flow cap shedding openings while the one flow runs.
		{FlowMix{FlowRate: 0.2, MaxActive: 1, RatPackets: 6, ElephantPackets: 30}, []int{1500}},
	}
}

// checkSkipEquivalence holds the jumping loop to the every-slot oracle for
// one configuration, materialized and streamed: equal sequences, and equal
// next draws from the three RNGs — a skipped or extra draw on a slot that
// happened to emit nothing would leave the sequences equal but not these.
func checkSkipEquivalence(t *testing.T, gen SlotStreamer, inputs, outputs, slots int, seed int64) {
	t.Helper()
	refRNG := rand.New(rand.NewSource(seed))
	want := refGenerateEverySlot(gen.Source(refRNG, inputs, outputs), slots)

	genRNG := rand.New(rand.NewSource(seed))
	got := generateFromSource(gen.Source(genRNG, inputs, outputs), slots)

	streamRNG := rand.New(rand.NewSource(seed))
	streamed := drain(t, NewGenStream(gen.Source(streamRNG, inputs, outputs), slots))

	label := fmt.Sprintf("%s %dx%d slots=%d seed=%d", gen.Name(), inputs, outputs, slots, seed)
	for _, c := range []struct {
		name string
		seq  Sequence
	}{{"generateFromSource", got}, {"GenStream", streamed}} {
		if len(c.seq) != len(want) || (len(want) > 0 && !reflect.DeepEqual(c.seq, want)) {
			t.Errorf("%s: %s diverged from the every-slot oracle (%d vs %d packets)", label, c.name, len(c.seq), len(want))
		}
	}
	next := refRNG.Int63()
	if g := genRNG.Int63(); g != next {
		t.Errorf("%s: generateFromSource left the RNG in a different state than the every-slot oracle", label)
	}
	if g := streamRNG.Int63(); g != next {
		t.Errorf("%s: GenStream left the RNG in a different state than the every-slot oracle", label)
	}
}

func TestNextBusySkipsOnlyIdleSlots(t *testing.T) {
	geometries := [][2]int{{1, 1}, {5, 3}, {4, 8}}
	for _, c := range skipCatalog() {
		for _, geo := range geometries {
			for _, slots := range c.horizons {
				for seed := int64(1); seed <= 5; seed++ {
					checkSkipEquivalence(t, c.gen, geo[0], geo[1], slots, seed)
				}
			}
		}
	}
}

// TestNextBusyContract checks the answers themselves on a source that
// jumps: never behind the question, stable when asked twice, and a fixed
// point (the slot it names is itself reported busy).
func TestNextBusyContract(t *testing.T) {
	for _, c := range skipCatalog() {
		src := c.gen.Source(rand.New(rand.NewSource(3)), 3, 3)
		var seq Sequence
		for tt := src.NextBusy(0); tt < 2000; tt = src.NextBusy(tt + 1) {
			seq = src.AppendSlot(seq[:0], tt)
			nb := src.NextBusy(tt + 1)
			if nb < tt+1 {
				t.Fatalf("%s: NextBusy(%d) = %d, behind the question", c.gen.Name(), tt+1, nb)
			}
			if again := src.NextBusy(tt + 1); again != nb {
				t.Fatalf("%s: NextBusy(%d) answered %d then %d", c.gen.Name(), tt+1, nb, again)
			}
			if nb != math.MaxInt && src.NextBusy(nb) != nb {
				t.Fatalf("%s: NextBusy(%d) = %d but NextBusy(%d) = %d", c.gen.Name(), tt+1, nb, nb, src.NextBusy(nb))
			}
		}
	}
}

// TestFlowMixNextBusyPastStageEnd asks a FlowMix source that sits before a
// stage boundary, with no flow open, for its next busy slot from beyond
// that boundary. The jumping drivers never ask from there (they run every
// boundary slot), so only this test pins the due-boundary clause of
// NextBusy: the answer must not be behind the question, and stepping the
// slot it names must do something the every-slot oracle would see — emit,
// draw from the RNG or move to a new stage.
func TestFlowMixNextBusyPastStageEnd(t *testing.T) {
	gen := FlowMix{FlowRate: 1e-6, StageSlots: 100}
	// enter returns a source that has run slot 0 only: the first stage is
	// entered, every opening is parked on its end, and no flow is open.
	enter := func() *flowMixSource {
		src := gen.Source(rand.New(rand.NewSource(1)), 2, 2).(*flowMixSource)
		src.AppendSlot(nil, 0)
		if src.open != 0 || src.stageEnd != 100 {
			t.Fatalf("setup: %d flows open, stage ends at %d; want 0 and 100", src.open, src.stageEnd)
		}
		return src
	}
	for _, q := range []int{101, 137, 503} {
		nb := enter().NextBusy(q)
		if nb < q {
			t.Fatalf("NextBusy(%d) = %d, behind the question", q, nb)
		}
		idle, stepped := enter(), enter()
		emitted := stepped.AppendSlot(nil, nb)
		drew := stepped.rng.Int63() != idle.rng.Int63()
		if len(emitted) == 0 && !drew && stepped.stageEnd == idle.stageEnd {
			t.Errorf("NextBusy(%d) = %d, but slot %d emits, draws and changes nothing", q, nb, nb)
		}
	}
}

// fuzzSlotStreamer decodes a generator family and its parameters from fuzz
// input. Parameters are kept in ranges where the every-slot oracle stays
// cheap (bounded per-slot arrivals) but every mode is reachable: loads
// above 1, silent stages, per-slot stages, one-slot stages, a cap of 1 (the
// cap stays small: a per-slot stage fills it within a few slots).
func fuzzSlotStreamer(family uint8, a, b, c uint16) SlotStreamer {
	frac := func(x uint16) float64 { return float64(x%1001) / 1000 }
	vd := UniformValues{Hi: 1 + int64(c%30)}
	switch family % 7 {
	case 0:
		return Bernoulli{Load: 2 * frac(a), Values: vd}
	case 1:
		return Hotspot{Load: 2 * frac(a), HotOut: int(b), HotFrac: frac(c), Values: vd}
	case 2:
		return Diagonal{Load: 2 * frac(a), OffFrac: frac(b), Values: vd}
	case 3:
		return Bursty{OnLoad: frac(a), POnOff: frac(b), POffOn: frac(c), Uniform: a%2 == 0, Values: vd}
	case 4:
		return Permutation{Load: 2 * frac(a), Values: vd}
	case 5:
		return Diurnal{Load: frac(a), Period: int(b % 900), Amplitude: 3 * frac(c), Values: vd}
	default:
		// Stage multipliers from the bits of c: 0 (silent), fractions, and
		// values that push the rate past 1 when FlowRate is high.
		var stages []float64
		for bits := c; bits != 0; bits >>= 3 {
			stages = append(stages, float64(bits&7)/2)
		}
		return FlowMix{
			FlowRate:   []float64{0.001, 0.02, 0.3, 1.5}[a%4],
			Stages:     stages,
			StageSlots: int(b % 400),
			MaxActive:  1 + int(a>>2)%5,
			RatPackets: 1 + int(a>>5)%6, ElephantPackets: 1 + int(a>>8)%40,
			Values: vd,
		}
	}
}

// FuzzSlotSkipEquivalence searches generator family, parameters, geometry,
// horizon and seed for a configuration where the jumping loop and the
// every-slot oracle disagree, or where NextBusy answers behind its question.
func FuzzSlotSkipEquivalence(f *testing.F) {
	f.Add(uint8(0), uint16(700), uint16(0), uint16(0), uint8(2), uint8(2), uint16(300), int64(1))
	f.Add(uint8(5), uint16(300), uint16(700), uint16(667), uint8(4), uint8(3), uint16(2500), int64(2))
	f.Add(uint8(5), uint16(0), uint16(50), uint16(1000), uint8(1), uint8(1), uint16(400), int64(3))
	f.Add(uint8(6), uint16(0), uint16(0), uint16(0), uint8(3), uint8(3), uint16(5000), int64(4))
	f.Add(uint8(6), uint16(1), uint16(300), uint16(0o201), uint8(5), uint8(2), uint16(4000), int64(5))
	f.Add(uint8(6), uint16(2), uint16(40), uint16(0o161), uint8(2), uint8(7), uint16(500), int64(6))
	f.Add(uint8(6), uint16(5), uint16(1), uint16(2), uint8(7), uint8(1), uint16(600), int64(7))
	f.Add(uint8(6), uint16(3), uint16(7), uint16(0o7), uint8(0), uint8(0), uint16(257), int64(8))
	f.Fuzz(func(t *testing.T, family uint8, a, b, c uint16, nIn, nOut uint8, horizon uint16, seed int64) {
		gen := fuzzSlotStreamer(family, a, b, c)
		inputs, outputs := int(nIn)%8+1, int(nOut)%8+1
		slots := int(horizon) % 5001
		checkSkipEquivalence(t, gen, inputs, outputs, slots, seed)

		src := gen.Source(rand.New(rand.NewSource(seed)), inputs, outputs)
		var seq Sequence
		for tt := 0; tt < slots; tt++ {
			if nb := src.NextBusy(tt); nb < tt {
				t.Fatalf("%s: NextBusy(%d) = %d", gen.Name(), tt, nb)
			}
			seq = src.AppendSlot(seq[:0], tt)
		}
	})
}

// countingSource counts the AppendSlot calls a driver makes and the packets
// they emit, passing everything through.
type countingSource struct {
	SlotSource
	calls, packets int
}

func (c *countingSource) AppendSlot(dst Sequence, t int) Sequence {
	c.calls++
	n := len(dst)
	dst = c.SlotSource.AppendSlot(dst, t)
	c.packets += len(dst) - n
	return dst
}

// TestGenStreamWorkIsPerEvent pins the work bound rather than a time: a
// streamed FlowMix enters its source once per stage window crossed and once
// per slot in which a flow is open — at most windows + packets + 1 calls,
// however long the horizon. (Every busy slot that is not a stage boundary
// has a flow open or opening, so it emits; the bound of the issue, windows
// + flows opened + packets + 1, is looser than this one.)
func TestGenStreamWorkIsPerEvent(t *testing.T) {
	for _, c := range []struct {
		name       string
		gen        FlowMix
		inputs     int
		slots      int
		maxEntered float64 // share of the horizon's slots that may be entered
	}{
		{"2^32 slots, one opening per 10^7", FlowMix{FlowRate: 1e-7, StageSlots: 1 << 24}, 4, 1 << 32, 1e-4},
		{"sparse_stream shape", FlowMix{FlowRate: 0.0002, Values: UniformValues{Hi: 20}}, 4, 4_000_000, 0.03},
	} {
		src := &countingSource{SlotSource: c.gen.Source(rand.New(rand.NewSource(7)), c.inputs, c.inputs)}
		drainAll(NewGenStream(src, c.slots))
		if src.packets == 0 {
			t.Fatalf("%s: the stream emitted nothing", c.name)
		}
		stageSlots := c.gen.stageSlots()
		windows := (c.slots + stageSlots - 1) / stageSlots
		if bound := windows + src.packets + 1; src.calls > bound {
			t.Errorf("%s: %d AppendSlot calls for %d stage windows and %d packets, want <= %d",
				c.name, src.calls, windows, src.packets, bound)
		}
		if share := float64(src.calls) / float64(c.slots); share > c.maxEntered {
			t.Errorf("%s: %d of %d slots entered (%.4f), want <= %g", c.name, src.calls, c.slots, share, c.maxEntered)
		}
	}
}

// TestGenStreamSteadyStateAllocs: once the window buffers have grown, a
// GenStream refill and a TraceStream refill allocate nothing — the streamed
// engines' O(window) memory claim, priced per refill.
func TestGenStreamSteadyStateAllocs(t *testing.T) {
	const perRun, runs = 2000, 50
	pull := func(src ArrivalStream) func() {
		return func() {
			for k := 0; k < perRun; k++ {
				if _, ok := src.Next(); !ok {
					panic("stream ran dry inside the measured region")
				}
			}
		}
	}

	gen := NewGenStream(FlowMixForLoad(0.3, UniformValues{Hi: 20}).Source(rand.New(rand.NewSource(5)), 4, 4), math.MaxInt)
	pull(gen)() // warm-up: grow the window buffer and the open-flow lists
	if a := testing.AllocsPerRun(runs, pull(gen)); a != 0 {
		t.Errorf("warmed GenStream: %.1f allocations per %d packets, want 0", a, perRun)
	}

	// (runs + 2) * perRun records: AllocsPerRun makes one warm-up call of
	// its own, and each measured call crosses three or four 512-record
	// windows.
	seq := FlowMixForLoad(0.5, UniformValues{Hi: 20}).Generate(rand.New(rand.NewSource(6)), 4, 4, 70_000)
	if len(seq) < (runs+2)*perRun {
		t.Fatalf("trace of %d records is too short for the measured region", len(seq))
	}
	var buf bytes.Buffer
	if err := (&Trace{Inputs: 4, Outputs: 4, Packets: seq}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := newTraceStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pull(ts)()
	if a := testing.AllocsPerRun(runs, pull(ts)); a != 0 {
		t.Errorf("warmed TraceStream: %.1f allocations per %d records, want 0", a, perRun)
	}
	if err := ts.Err(); err != nil {
		t.Fatal(err)
	}
}
