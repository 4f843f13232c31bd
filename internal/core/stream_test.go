package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Source-equivalence tests for the arrival front ends. RunCIOQ/RunCrossbar
// and RunCIOQStream/RunCrossbarStream drive one slot loop per architecture
// through one cursor (switchsim's arrivals), so what these tests pin is the
// cursor: every shipped policy, over the same sparse workloads and configs
// as the event-driven suite, must see the same arrivals, jump targets and
// horizon — hence bit-identical Metrics — whether they come from the
// caller's slice, a SeqStream replay or a lazily synthesized GenStream.
// They cannot catch a wrong slot (both sides would be wrong together); the
// independent oracles for the loop body are Config.Dense
// (TestEventDriven*MatchesDense, FuzzEventDrivenEquivalence), the retained
// full-scan policies of reference_test.go, the fleet differentials in
// internal/fleet and the golden E1-E4 CSVs in internal/experiments.
// TestFrontEndsAgree (eventdriven_test.go) adds TraceStream and the
// steppers on the paper's four algorithms.

func TestStreamCIOQMatchesMaterialized(t *testing.T) {
	for name, mk := range eventDrivenCIOQPolicies() {
		for _, rc := range eventDrivenConfigs() {
			for gi, gen := range sparseWorkloads() {
				for seed := int64(1); seed <= 2; seed++ {
					s := seed*31 + int64(gi)
					seq := sparseSeq(rc.cfg, gen, s)
					want, err := switchsim.RunCIOQ(rc.cfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d materialized: %v", name, rc.name, gen.Name(), seed, err)
					}
					got, err := switchsim.RunCIOQStream(rc.cfg, mk(), packet.NewSeqStream(seq))
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d stream: %v", name, rc.name, gen.Name(), seed, err)
					}
					if !reflect.DeepEqual(want.M, got.M) {
						t.Errorf("%s/%s/%s seed %d: stream diverged from materialized:\nmat:    %+v\nstream: %+v",
							name, rc.name, gen.Name(), seed, want.M, got.M)
					}
					if got.Slots != want.Slots {
						t.Errorf("%s/%s/%s seed %d: horizon mismatch %d vs %d",
							name, rc.name, gen.Name(), seed, got.Slots, want.Slots)
					}
				}
			}
		}
	}
}

func TestStreamCrossbarMatchesMaterialized(t *testing.T) {
	for name, mk := range eventDrivenCrossbarPolicies() {
		for _, rc := range eventDrivenConfigs() {
			for gi, gen := range sparseWorkloads() {
				for seed := int64(1); seed <= 2; seed++ {
					s := seed*17 + int64(gi)
					seq := sparseSeq(rc.cfg, gen, s)
					want, err := switchsim.RunCrossbar(rc.cfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d materialized: %v", name, rc.name, gen.Name(), seed, err)
					}
					got, err := switchsim.RunCrossbarStream(rc.cfg, mk(), packet.NewSeqStream(seq))
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d stream: %v", name, rc.name, gen.Name(), seed, err)
					}
					if !reflect.DeepEqual(want.M, got.M) {
						t.Errorf("%s/%s/%s seed %d: stream diverged from materialized:\nmat:    %+v\nstream: %+v",
							name, rc.name, gen.Name(), seed, want.M, got.M)
					}
				}
			}
		}
	}
}

// streamWorkloads are the lazily-streamable generators (SlotStreamer
// implementations) used to pin the GenStream path end to end: generate
// with a seeded RNG on one side, stream with an identically seeded RNG on
// the other.
func streamWorkloads() []packet.Generator {
	return []packet.Generator{
		packet.Diurnal{Load: 0.1, Period: 300, Amplitude: 1.5, Values: packet.UniformValues{Hi: 40}},
		packet.Bursty{OnLoad: 0.8, POnOff: 0.4, POffOn: 0.02, Values: packet.ZipfValues{Hi: 60, S: 1.3}},
		packet.FlowMixForLoad(0.4, packet.TwoValued{Alpha: 25, PHigh: 0.15}),
	}
}

// TestStreamLazyGenerationMatchesMaterialized drives the full lazy
// pipeline — generator → GenStream → pulled cursor — against generate →
// slice cursor, including latency sketches under StreamMetrics.
func TestStreamLazyGenerationMatchesMaterialized(t *testing.T) {
	cfgs := []edConfig{
		{"4x4", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}},
		{"4x4-sketch", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 3, OutputBuf: 4, CrossBuf: 2, Speedup: 2, Validate: true,
			RecordLatency: true, StreamMetrics: true}},
	}
	const slots = 2500
	for _, rc := range cfgs {
		for gi, gen := range streamWorkloads() {
			seed := int64(101 + gi)
			seq := gen.Generate(rand.New(rand.NewSource(seed)), rc.cfg.Inputs, rc.cfg.Outputs, slots)
			stream := func() packet.ArrivalStream {
				return packet.StreamTraffic(gen, rand.New(rand.NewSource(seed)), rc.cfg.Inputs, rc.cfg.Outputs, slots)
			}

			want, err := switchsim.RunCIOQ(rc.cfg, &GM{Order: Rotating}, seq)
			if err != nil {
				t.Fatalf("%s/%s cioq materialized: %v", rc.name, gen.Name(), err)
			}
			got, err := switchsim.RunCIOQStream(rc.cfg, &GM{Order: Rotating}, stream())
			if err != nil {
				t.Fatalf("%s/%s cioq stream: %v", rc.name, gen.Name(), err)
			}
			if !reflect.DeepEqual(want.M, got.M) {
				t.Errorf("%s/%s cioq: lazy stream diverged:\nmat:    %+v\nstream: %+v", rc.name, gen.Name(), want.M, got.M)
			}

			xwant, err := switchsim.RunCrossbar(rc.cfg, &CPG{}, seq)
			if err != nil {
				t.Fatalf("%s/%s crossbar materialized: %v", rc.name, gen.Name(), err)
			}
			xgot, err := switchsim.RunCrossbarStream(rc.cfg, &CPG{}, stream())
			if err != nil {
				t.Fatalf("%s/%s crossbar stream: %v", rc.name, gen.Name(), err)
			}
			if !reflect.DeepEqual(xwant.M, xgot.M) {
				t.Errorf("%s/%s crossbar: lazy stream diverged:\nmat:    %+v\nstream: %+v", rc.name, gen.Name(), xwant.M, xgot.M)
			}
			if rc.cfg.StreamMetrics {
				for _, q := range []float64{0.5, 0.9, 0.99} {
					if a, b := want.M.LatencyQuantile(q), got.M.LatencyQuantile(q); a != b {
						t.Errorf("%s/%s: latency q%.2f differs: %d vs %d", rc.name, gen.Name(), q, a, b)
					}
				}
			}
		}
	}
}

// TestStreamMetricsSketchMatchesHistogram: with StreamMetrics the latency
// quantiles come from the P² sketch instead of the exact histogram; on a
// real workload the two must agree to within a few slots.
func TestStreamMetricsSketchMatchesHistogram(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 4, OutputBuf: 4, Speedup: 1, RecordLatency: true}
	gen := packet.Bernoulli{Load: 0.6}
	seq := gen.Generate(rand.New(rand.NewSource(5)), cfg.Inputs, cfg.Outputs, 20000)
	exact, err := switchsim.RunCIOQ(cfg, &GM{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.StreamMetrics = true
	sketch, err := switchsim.RunCIOQ(scfg, &GM{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	// Counters and exact latency moments are unaffected by the sketch.
	if exact.M.LatencySum != sketch.M.LatencySum || exact.M.LatencyMax != sketch.M.LatencyMax {
		t.Errorf("StreamMetrics changed exact latency moments: %+v vs %+v", exact.M, sketch.M)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		e, s := exact.M.LatencyQuantile(q), sketch.M.LatencyQuantile(q)
		diff := e - s
		if diff < 0 {
			diff = -diff
		}
		if diff > 2+e/10 {
			t.Errorf("q%.2f: sketch %d vs histogram %d", q, s, e)
		}
	}
}

// TestStreamSlotsCapBeatsStream: a finite Slots horizon truncates an
// arrival stream exactly like it truncates a materialized sequence (late
// arrivals never admitted).
func TestStreamSlotsCapBeatsStream(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 2, Speedup: 1, Slots: 400, Validate: true}
	gen := packet.Diurnal{Load: 0.2, Period: 100, Amplitude: 1.4}
	seq := gen.Generate(rand.New(rand.NewSource(9)), 3, 3, 1000) // arrivals beyond the horizon
	want, err := switchsim.RunCIOQ(cfg, &GM{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := switchsim.RunCIOQStream(cfg, &GM{}, packet.NewSeqStream(seq))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.M, got.M) || got.Slots != want.Slots {
		t.Errorf("capped-horizon stream diverged:\nmat:    %+v (%d slots)\nstream: %+v (%d slots)",
			want.M, want.Slots, got.M, got.Slots)
	}
}

// TestStreamRejectsInvalidSequences: both entry points check arrivals with
// the one packet.Validator, so a malformed sequence fails RunCIOQ/RunCrossbar
// (up front) and RunCIOQStream/RunCrossbarStream (as the packet is pulled)
// with byte-identical error text.
func TestStreamRejectsInvalidSequences(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1}
	good := packet.Packet{ID: 0, Arrival: 0, In: 0, Out: 0, Value: 1}
	for _, tc := range []struct {
		name string
		seq  packet.Sequence
		want string
	}{
		{"arrival regression", packet.Sequence{
			{ID: 0, Arrival: 5, In: 0, Out: 0, Value: 1},
			{ID: 1, Arrival: 4, In: 0, Out: 0, Value: 1},
		}, "switchsim: bad sequence: packet 1: arrival 4 before previous 5"},
		{"id not ascending", packet.Sequence{
			{ID: 3, Arrival: 0, In: 0, Out: 0, Value: 1},
			{ID: 3, Arrival: 1, In: 0, Out: 0, Value: 1},
		}, "switchsim: bad sequence: packet 1: id 3 not ascending (prev 3)"},
		{"input out of range", packet.Sequence{
			{ID: 0, Arrival: 0, In: 7, Out: 0, Value: 1},
		}, "switchsim: bad sequence: packet 0: input port 7 out of range [0,2)"},
		{"output out of range", packet.Sequence{
			good,
			{ID: 1, Arrival: 0, In: 1, Out: -1, Value: 1},
		}, "switchsim: bad sequence: packet 1: output port -1 out of range [0,2)"},
		{"value below one", packet.Sequence{
			{ID: 0, Arrival: 0, In: 0, Out: 0, Value: 0},
		}, "switchsim: bad sequence: packet 0: value 0 < 1"},
		{"negative arrival", packet.Sequence{
			{ID: 0, Arrival: -1, In: 0, Out: 0, Value: 1},
		}, "switchsim: bad sequence: packet 0: arrival -1 before previous 0"},
	} {
		_, errSeq := switchsim.RunCIOQ(cfg, &GM{}, tc.seq)
		_, errStream := switchsim.RunCIOQStream(cfg, &GM{}, packet.NewSeqStream(tc.seq))
		_, errXSeq := switchsim.RunCrossbar(cfg, &CGU{}, tc.seq)
		_, errXStream := switchsim.RunCrossbarStream(cfg, &CGU{}, packet.NewSeqStream(tc.seq))
		for entry, err := range map[string]error{
			"RunCIOQ": errSeq, "RunCIOQStream": errStream,
			"RunCrossbar": errXSeq, "RunCrossbarStream": errXStream,
		} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %s returned %v, want %q", tc.name, entry, err, tc.want)
			}
		}
	}

	// The one intended difference: with a Slots cap, a sequence is checked
	// whole before the run starts, while a stream is only ever pulled one
	// packet past the horizon — so a malformed packet further out fails the
	// sequence entry points and is never seen by the stream ones.
	capped := cfg
	capped.Slots = 3
	seq := packet.Sequence{
		good,
		{ID: 1, Arrival: 5, In: 1, Out: 1, Value: 1}, // the look-ahead packet
		{ID: 2, Arrival: 6, In: 9, Out: 0, Value: 1}, // malformed, never pulled
	}
	const want = "switchsim: bad sequence: packet 2: input port 9 out of range [0,2)"
	if _, err := switchsim.RunCIOQ(capped, &GM{}, seq); err == nil || err.Error() != want {
		t.Errorf("RunCIOQ beyond Slots: got %v, want %q", err, want)
	}
	if _, err := switchsim.RunCrossbar(capped, &CGU{}, seq); err == nil || err.Error() != want {
		t.Errorf("RunCrossbar beyond Slots: got %v, want %q", err, want)
	}
	ref, err := switchsim.RunCIOQ(capped, &GM{}, seq[:2])
	if err != nil {
		t.Fatal(err)
	}
	src := packet.NewSeqStream(seq)
	got, err := switchsim.RunCIOQStream(capped, &GM{}, src)
	if err != nil {
		t.Fatalf("RunCIOQStream pulled past its look-ahead: %v", err)
	}
	if !reflect.DeepEqual(ref.M, got.M) || got.Slots != ref.Slots {
		t.Errorf("capped stream diverged from the well-formed prefix: %+v vs %+v", got.M, ref.M)
	}
	if p, ok := src.Peek(); !ok || p.ID != 2 {
		t.Errorf("stream left at %v (ok=%v), want the malformed packet still unpulled", p, ok)
	}
	if _, err := switchsim.RunCrossbarStream(capped, &CGU{}, packet.NewSeqStream(seq)); err != nil {
		t.Errorf("RunCrossbarStream pulled past its look-ahead: %v", err)
	}
}

// FuzzStreamEquivalence fuzzes the same source equivalence: random sparse
// sequences through representative policies, slice cursor vs pulled
// stream into the one loop, Validate on so the switch state after every
// jump is cross-checked. FuzzEventDrivenEquivalence (against Config.Dense)
// is the fuzzer with an independent oracle.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add([]byte{255, 1, 2, 90, 200, 0, 1, 3, 0, 1, 1, 60}, uint8(3), uint8(2), uint8(2), uint8(3))
	f.Add([]byte{10, 0, 0, 1, 250, 1, 1, 99, 250, 2, 2, 5, 3, 0, 1, 7}, uint8(4), uint8(4), uint8(1), uint8(7))
	f.Add([]byte{5, 0, 0, 9, 0, 1, 0, 9, 0, 2, 0, 9, 0, 3, 0, 9, 1, 0, 0, 9, 0, 1, 0, 9, 0, 2, 0, 9, 0, 3, 0, 9},
		uint8(4), uint8(1), uint8(3), uint8(12))
	f.Fuzz(func(t *testing.T, raw []byte, nIn, nOut, speedup, outBuf uint8) {
		inputs := int(nIn)%4 + 1
		outputs := int(nOut)%4 + 1
		cfg := switchsim.Config{
			Inputs: inputs, Outputs: outputs,
			InputBuf: 2, OutputBuf: int(outBuf)%16 + 1, CrossBuf: 1,
			Speedup:  int(speedup)%3 + 1,
			Validate: true,
		}
		seq := fuzzSequence(raw, inputs, outputs)
		if err := seq.Validate(inputs, outputs); err != nil {
			t.Fatalf("fuzzSequence built an invalid sequence: %v", err)
		}
		for name, mk := range map[string]func() switchsim.CIOQPolicy{
			"gm-rotating": func() switchsim.CIOQPolicy { return &GM{Order: Rotating} },
			"pg":          func() switchsim.CIOQPolicy { return &PG{} },
		} {
			want, err := switchsim.RunCIOQ(cfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s materialized: %v", name, err)
			}
			got, err := switchsim.RunCIOQStream(cfg, mk(), packet.NewSeqStream(seq))
			if err != nil {
				t.Fatalf("%s stream: %v", name, err)
			}
			if !reflect.DeepEqual(want.M, got.M) {
				t.Errorf("%s: stream diverged:\nmat:    %+v\nstream: %+v", name, want.M, got.M)
			}
		}
		for name, mk := range map[string]func() switchsim.CrossbarPolicy{
			"cgu-rotating": func() switchsim.CrossbarPolicy { return &CGU{RotatePick: true} },
			"cpg":          func() switchsim.CrossbarPolicy { return &CPG{} },
		} {
			want, err := switchsim.RunCrossbar(cfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s materialized: %v", name, err)
			}
			got, err := switchsim.RunCrossbarStream(cfg, mk(), packet.NewSeqStream(seq))
			if err != nil {
				t.Fatalf("%s stream: %v", name, err)
			}
			if !reflect.DeepEqual(want.M, got.M) {
				t.Errorf("%s: stream diverged:\nmat:    %+v\nstream: %+v", name, want.M, got.M)
			}
		}
	})
}

// TestStreamRunBoundedAllocations pins the bounded-memory claim: a
// 10⁷-slot lazily-generated run allocates O(window + switch state), not
// O(packets). The materialized equivalent would allocate hundreds of
// megabytes for the sequence alone; the streamed run must stay under a
// couple of megabytes and a few thousand allocations.
func TestStreamRunBoundedAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁷-slot run in -short mode")
	}
	const slots = 10_000_000
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 4, OutputBuf: 8, Speedup: 2}
	gen := packet.FlowMixForLoad(0.3, nil)

	run := func() {
		src := packet.StreamTraffic(gen, rand.New(rand.NewSource(12)), cfg.Inputs, cfg.Outputs, slots)
		res, err := switchsim.RunCIOQStream(cfg, &GM{Order: Rotating}, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Sent == 0 {
			t.Fatal("streamed run sent nothing")
		}
	}
	run() // warm-up so lazily initialized runtime state is excluded

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)

	totalAlloc := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	// ~40 MB of Packet structs would be the materialized floor for this
	// workload; the streamed run re-uses one window buffer.
	if totalAlloc > 8<<20 {
		t.Errorf("streamed 10⁷-slot run allocated %d bytes, want < 8 MiB", totalAlloc)
	}
	if mallocs > 20_000 {
		t.Errorf("streamed 10⁷-slot run made %d allocations, want < 20k", mallocs)
	}
}
