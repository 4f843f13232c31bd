package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Differential tests for the event-driven fast path: every shipped policy
// on both switch architectures, driven over sparse and bursty workloads,
// must produce Metrics bit-identical to a dense (slot-by-slot) run of the
// same sequence. This extends the reference_test.go pattern — there the
// oracle is the retained full-scan implementation, here it is the dense
// engine itself.

// sparseWorkloads are generators whose traces contain long idle or
// quiescent stretches, so event-driven runs actually take jumps (a
// dense-only equivalence would be vacuous on saturating traffic). The
// BurstyBlocking entries converge bursts on a single output: on the
// speedup >= 2 configs below they park a backlog in the output queues
// with an empty input side — the quiescent drain shape.
func sparseWorkloads() []packet.Generator {
	return []packet.Generator{
		packet.PoissonBurst{OffMean: 60, BurstMean: 3, Values: packet.UniformValues{Hi: 30}},
		packet.PoissonBurst{OffMean: 200, BurstMean: 6},
		packet.Diurnal{Load: 0.15, Period: 64, Amplitude: 1.5, Values: packet.TwoValued{Alpha: 50, PHigh: 0.2}},
		packet.HeavyTail{Alpha: 1.3, MinGap: 8, Values: packet.ZipfValues{Hi: 100, S: 1.2}},
		packet.Bursty{OnLoad: 0.8, POnOff: 0.5, POffOn: 0.01, Values: packet.UniformValues{Hi: 10}},
		packet.BurstyBlocking{OffMean: 120, Burst: 6, Values: packet.UniformValues{Hi: 20}},
		packet.BurstyBlocking{OffMean: 250, Burst: 10, Fanin: 2, Values: packet.ZipfValues{Hi: 50, S: 1.3}},
	}
}

type edConfig struct {
	name string
	cfg  switchsim.Config
}

func eventDrivenConfigs() []edConfig {
	return []edConfig{
		{"4x4", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}},
		{"4x4-speedup2-latency", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 3, OutputBuf: 2, CrossBuf: 2, Speedup: 2, Validate: true, RecordLatency: true}},
		{"8x3-series", switchsim.Config{Inputs: 8, Outputs: 3, InputBuf: 2, OutputBuf: 4, CrossBuf: 1, Speedup: 3, Validate: true, RecordSeries: true}},
		// Deep output buffers at speedup 4: converging bursts park long
		// backlogs in the output queues, so most non-idle skipped slots
		// are quiescent drains rather than empty stretches.
		{"6x6-speedup4-drain", switchsim.Config{Inputs: 6, Outputs: 6, InputBuf: 4, OutputBuf: 32, CrossBuf: 2, Speedup: 4, Validate: true, RecordLatency: true, RecordSeries: true}},
	}
}

func eventDrivenCIOQPolicies() map[string]func() switchsim.CIOQPolicy {
	return map[string]func() switchsim.CIOQPolicy{
		"gm":              func() switchsim.CIOQPolicy { return &GM{} },
		"gm-colmajor":     func() switchsim.CIOQPolicy { return &GM{Order: ColMajor} },
		"gm-rotating":     func() switchsim.CIOQPolicy { return &GM{Order: Rotating} },
		"gm-longestfirst": func() switchsim.CIOQPolicy { return &GM{Order: LongestFirst} },
		"krmm":            func() switchsim.CIOQPolicy { return &KRMM{} },
		"pg":              func() switchsim.CIOQPolicy { return &PG{} },
		"krmwm":           func() switchsim.CIOQPolicy { return &KRMWM{} },
		"gm-random":       func() switchsim.CIOQPolicy { return &RandomizedGM{Seed: 5} },
		"ar-fifo":         func() switchsim.CIOQPolicy { return &ARFIFO{} },
		"naive-fifo":      func() switchsim.CIOQPolicy { return &NaiveFIFO{} },
		"roundrobin":      func() switchsim.CIOQPolicy { return &RoundRobin{} },
	}
}

func eventDrivenCrossbarPolicies() map[string]func() switchsim.CrossbarPolicy {
	return map[string]func() switchsim.CrossbarPolicy{
		"cgu":            func() switchsim.CrossbarPolicy { return &CGU{} },
		"cgu-rotating":   func() switchsim.CrossbarPolicy { return &CGU{RotatePick: true} },
		"cpg":            func() switchsim.CrossbarPolicy { return &CPG{} },
		"cpg-equal":      func() switchsim.CrossbarPolicy { return CPGEqualParams() },
		"kks-fifo":       func() switchsim.CrossbarPolicy { return &KKSFIFO{} },
		"crossbar-naive": func() switchsim.CrossbarPolicy { return &CrossbarNaive{} },
	}
}

// sparseSeq draws a seeded sparse workload with enough horizon for real
// idle gaps between bursts.
func sparseSeq(cfg switchsim.Config, gen packet.Generator, seed int64) packet.Sequence {
	rng := rand.New(rand.NewSource(seed))
	return gen.Generate(rng, cfg.Inputs, cfg.Outputs, 1500)
}

func TestEventDrivenCIOQMatchesDense(t *testing.T) {
	for name, mk := range eventDrivenCIOQPolicies() {
		for _, rc := range eventDrivenConfigs() {
			for gi, gen := range sparseWorkloads() {
				for seed := int64(1); seed <= 3; seed++ {
					seq := sparseSeq(rc.cfg, gen, seed*31+int64(gi))
					denseCfg := rc.cfg
					denseCfg.Dense = true
					dense, err := switchsim.RunCIOQ(denseCfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d dense: %v", name, rc.name, gen.Name(), seed, err)
					}
					fast, err := switchsim.RunCIOQ(rc.cfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d event-driven: %v", name, rc.name, gen.Name(), seed, err)
					}
					if !reflect.DeepEqual(dense.M, fast.M) {
						t.Errorf("%s/%s/%s seed %d: event-driven diverged from dense:\ndense: %+v\nevent: %+v",
							name, rc.name, gen.Name(), seed, dense.M, fast.M)
					}
					if fast.Slots != dense.Slots {
						t.Errorf("%s/%s/%s seed %d: horizon mismatch %d vs %d",
							name, rc.name, gen.Name(), seed, fast.Slots, dense.Slots)
					}
				}
			}
		}
	}
}

func TestEventDrivenCrossbarMatchesDense(t *testing.T) {
	for name, mk := range eventDrivenCrossbarPolicies() {
		for _, rc := range eventDrivenConfigs() {
			for gi, gen := range sparseWorkloads() {
				for seed := int64(1); seed <= 3; seed++ {
					seq := sparseSeq(rc.cfg, gen, seed*17+int64(gi))
					denseCfg := rc.cfg
					denseCfg.Dense = true
					dense, err := switchsim.RunCrossbar(denseCfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d dense: %v", name, rc.name, gen.Name(), seed, err)
					}
					fast, err := switchsim.RunCrossbar(rc.cfg, mk(), seq)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d event-driven: %v", name, rc.name, gen.Name(), seed, err)
					}
					if !reflect.DeepEqual(dense.M, fast.M) {
						t.Errorf("%s/%s/%s seed %d: event-driven diverged from dense:\ndense: %+v\nevent: %+v",
							name, rc.name, gen.Name(), seed, dense.M, fast.M)
					}
				}
			}
		}
	}
}

// TestEventDrivenStepperIdleJump drives the interactive steppers through
// a burst / long-idle / burst pattern with StepIdle and checks the final
// result against dense RunCIOQ/RunCrossbar on the equivalent sequence.
func TestEventDrivenStepperIdleJump(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}
	burst := []packet.Packet{
		{In: 0, Out: 1, Value: 5}, {In: 1, Out: 1, Value: 3}, {In: 2, Out: 0, Value: 9},
	}
	const gap = 500

	// The same workload as a flat sequence for the dense oracle: one
	// burst at slot 0 and one at slot gap.
	var seq packet.Sequence
	var id int64
	for _, b := range []int{0, gap} {
		for _, p := range burst {
			p.Arrival = b
			p.ID = id
			id++
			seq = append(seq, p)
		}
	}
	seq = seq.Normalize()
	cfgRun := cfg
	cfgRun.Slots = gap + 50
	cfgRun.Dense = true
	dense, err := switchsim.RunCIOQ(cfgRun, &GM{Order: Rotating}, seq)
	if err != nil {
		t.Fatal(err)
	}

	st, err := switchsim.NewCIOQStepper(cfg, &GM{Order: Rotating})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot(burst); err != nil {
		t.Fatal(err)
	}
	// StepIdle right after the burst: it must drain the backlog slot by
	// slot and then jump the remaining idle stretch in one step.
	if err := st.StepIdle(gap - st.Slot()); err != nil {
		t.Fatal(err)
	}
	if st.Slot() != gap {
		t.Fatalf("stepper at slot %d after idle jump, want %d", st.Slot(), gap)
	}
	if err := st.StepSlot(burst); err != nil {
		t.Fatal(err)
	}
	for st.Slot() < cfgRun.Slots {
		if err := st.StepSlot(nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense.M, res.M) {
		t.Errorf("stepper with StepIdle diverged from dense run:\ndense:   %+v\nstepper: %+v", dense.M, res.M)
	}

	// Crossbar stepper: StepIdle with a non-advancing stretch must equal
	// per-slot stepping.
	mkRun := func(useJump bool) *switchsim.Result {
		st, err := switchsim.NewCrossbarStepper(cfg, &CGU{RotatePick: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.StepSlot(burst); err != nil {
			t.Fatal(err)
		}
		for st.Switch().QueuedPackets() > 0 {
			if err := st.StepSlot(nil); err != nil {
				t.Fatal(err)
			}
		}
		if useJump {
			if err := st.StepIdle(300); err != nil {
				t.Fatal(err)
			}
		} else {
			for k := 0; k < 300; k++ {
				if err := st.StepSlot(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.StepSlot(burst); err != nil {
			t.Fatal(err)
		}
		res, err := st.Finish(100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jumped, stepped := mkRun(true), mkRun(false)
	if !reflect.DeepEqual(jumped.M, stepped.M) || jumped.Slots != stepped.Slots {
		t.Errorf("crossbar StepIdle diverged from per-slot stepping:\nstepped: %+v (%d slots)\njumped:  %+v (%d slots)",
			stepped.M, stepped.Slots, jumped.M, jumped.Slots)
	}
}

// slotStepper is what CIOQStepper and CrossbarStepper have in common.
type slotStepper interface {
	Slot() int
	StepSlot(arrivals []packet.Packet) error
	StepIdle(idleSlots int) error
	Finish(maxDrain int) (*switchsim.Result, error)
}

// driveStepper feeds seq to a stepper the way an adaptive caller would —
// StepSlot per arrival slot, StepIdle over every gap and over the tail up
// to the horizon, then Finish — so the result is comparable to a run with
// Config.Slots = slots.
func driveStepper(st slotStepper, seq packet.Sequence, slots int) (*switchsim.Result, error) {
	for k := 0; k < len(seq) && seq[k].Arrival < slots; {
		at := seq[k].Arrival
		if err := st.StepIdle(at - st.Slot()); err != nil {
			return nil, err
		}
		j := k
		for j < len(seq) && seq[j].Arrival == at {
			j++
		}
		if err := st.StepSlot(seq[k:j]); err != nil {
			return nil, err
		}
		k = j
	}
	if err := st.StepIdle(slots - st.Slot()); err != nil {
		return nil, err
	}
	return st.Finish(0)
}

// frontEnds are the three ways into one architecture's slot loop.
type frontEnds struct {
	slice   func(switchsim.Config, packet.Sequence) (*switchsim.Result, error)
	stream  func(switchsim.Config, packet.ArrivalStream) (*switchsim.Result, error)
	stepper func(switchsim.Config) (slotStepper, error)
}

func cioqFrontEnds(mk func() switchsim.CIOQPolicy) frontEnds {
	return frontEnds{
		slice: func(cfg switchsim.Config, seq packet.Sequence) (*switchsim.Result, error) {
			return switchsim.RunCIOQ(cfg, mk(), seq)
		},
		stream: func(cfg switchsim.Config, src packet.ArrivalStream) (*switchsim.Result, error) {
			return switchsim.RunCIOQStream(cfg, mk(), src)
		},
		stepper: func(cfg switchsim.Config) (slotStepper, error) { return switchsim.NewCIOQStepper(cfg, mk()) },
	}
}

func crossbarFrontEnds(mk func() switchsim.CrossbarPolicy) frontEnds {
	return frontEnds{
		slice: func(cfg switchsim.Config, seq packet.Sequence) (*switchsim.Result, error) {
			return switchsim.RunCrossbar(cfg, mk(), seq)
		},
		stream: func(cfg switchsim.Config, src packet.ArrivalStream) (*switchsim.Result, error) {
			return switchsim.RunCrossbarStream(cfg, mk(), src)
		},
		stepper: func(cfg switchsim.Config) (slotStepper, error) { return switchsim.NewCrossbarStepper(cfg, mk()) },
	}
}

// TestFrontEndsAgree runs the same arrivals through every front end of the
// one slot loop — the caller's slice, a SeqStream replay, the generator's
// own lazy stream (a GenStream for the slot-major generators), a
// TraceStream decoding a trace file, and a stepper driven with StepSlot /
// StepIdle / Finish — for the paper's four algorithms on dense, sparse,
// blocking-burst and crosspoint-drain traffic, event-driven and dense,
// with the latency histogram and with the StreamMetrics sketch. Metrics
// and Slots must be deeply equal across all five. This is a source
// equivalence: all five share the loop body, so it cannot catch a wrong
// slot — Config.Dense (TestEventDriven*MatchesDense), reference_test.go,
// the fleet differentials and the golden E1-E4 CSVs are the independent
// oracles for that.
func TestFrontEndsAgree(t *testing.T) {
	const genSlots, slots = 600, 700
	policies := []struct {
		name string
		fe   frontEnds
	}{
		{"gm", cioqFrontEnds(func() switchsim.CIOQPolicy { return &GM{} })},
		{"pg", cioqFrontEnds(func() switchsim.CIOQPolicy { return &PG{} })},
		{"cgu", crossbarFrontEnds(func() switchsim.CrossbarPolicy { return &CGU{} })},
		{"cpg", crossbarFrontEnds(func() switchsim.CrossbarPolicy { return &CPG{} })},
	}
	workloads := []packet.Generator{
		packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 20}},
		packet.Diurnal{Load: 0.15, Period: 64, Amplitude: 1.5, Values: packet.TwoValued{Alpha: 50, PHigh: 0.2}},
		packet.BurstyBlocking{OffMean: 120, Burst: 6, Values: packet.UniformValues{Hi: 20}},
		packet.CrossDrain{OffMean: 80, Depth: 2, Values: packet.UniformValues{Hi: 9}},
	}
	base := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 3, OutputBuf: 8, CrossBuf: 2, Speedup: 2,
		Slots: slots, Validate: true, RecordLatency: true}
	dir := t.TempDir()
	for gi, gen := range workloads {
		seed := int64(41 + gi)
		seq := gen.Generate(rand.New(rand.NewSource(seed)), base.Inputs, base.Outputs, genSlots)
		if len(seq) == 0 {
			t.Fatalf("%s: empty workload", gen.Name())
		}
		tracePath := filepath.Join(dir, fmt.Sprintf("w%d.trace", gi))
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := (&packet.Trace{Inputs: base.Inputs, Outputs: base.Outputs, Packets: seq}).WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			for _, dense := range []bool{false, true} {
				for _, sketch := range []bool{false, true} {
					cfg := base
					cfg.Dense, cfg.StreamMetrics = dense, sketch
					cell := fmt.Sprintf("%s/%s/dense=%v/sketch=%v", pol.name, gen.Name(), dense, sketch)
					want, err := pol.fe.slice(cfg, seq)
					if err != nil {
						t.Fatalf("%s slice: %v", cell, err)
					}
					if (want.M.LatencySketch != nil) != sketch || (want.M.LatencyHist != nil) == sketch {
						t.Fatalf("%s: slice run ignored StreamMetrics", cell)
					}
					ts, err := packet.OpenTraceStream(tracePath)
					if err != nil {
						t.Fatal(err)
					}
					got := map[string]*switchsim.Result{}
					for name, src := range map[string]packet.ArrivalStream{
						"seqstream":   packet.NewSeqStream(seq),
						"lazy":        packet.StreamTraffic(gen, rand.New(rand.NewSource(seed)), cfg.Inputs, cfg.Outputs, genSlots),
						"tracestream": ts,
					} {
						if got[name], err = pol.fe.stream(cfg, src); err != nil {
							t.Fatalf("%s %s: %v", cell, name, err)
						}
					}
					ts.Close()
					st, err := pol.fe.stepper(cfg)
					if err != nil {
						t.Fatalf("%s stepper: %v", cell, err)
					}
					if got["stepper"], err = driveStepper(st, seq, slots); err != nil {
						t.Fatalf("%s stepper: %v", cell, err)
					}
					for name, res := range got {
						if !reflect.DeepEqual(want.M, res.M) || res.Slots != want.Slots {
							t.Errorf("%s: %s diverged from slice:\nslice: %+v (%d slots)\n%s: %+v (%d slots)",
								cell, name, want.M, want.Slots, name, res.M, res.Slots)
						}
					}
				}
			}
		}
	}
}

// countingGM wraps GM (keeping its IdleAdvancer implementation through
// embedding) and counts Schedule invocations, distinguishing "the fast
// path matched dense results" from "the fast path actually skipped the
// scheduling work".
type countingGM struct {
	GM
	scheduleCalls int
}

func (c *countingGM) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	c.scheduleCalls++
	return c.GM.Schedule(sw, slot, cycle)
}

// TestQuiescentJumpSkipsScheduling runs a burst-and-drain workload whose
// slots are mostly backlogged-but-quiescent or idle, and asserts that the
// event-driven engine (a) reproduces the dense metrics bit for bit and
// (b) invokes the scheduler only for the few slots where input-side
// packets exist — the quiescent drain and the idle tail are advanced
// without a single Schedule call.
func TestQuiescentJumpSkipsScheduling(t *testing.T) {
	cfg := switchsim.Config{
		Inputs: 8, Outputs: 8, InputBuf: 8, OutputBuf: 64,
		Speedup: 2, Slots: 3000, Validate: true, RecordLatency: true,
	}
	gen := packet.BurstyBlocking{OffMean: 300, Burst: 8, Values: packet.UniformValues{Hi: 5}}
	seq := gen.Generate(rand.New(rand.NewSource(7)), cfg.Inputs, cfg.Outputs, cfg.Slots)
	if len(seq) == 0 {
		t.Fatal("empty workload")
	}

	denseCfg := cfg
	denseCfg.Dense = true
	densePol := &countingGM{}
	dense, err := switchsim.RunCIOQ(denseCfg, densePol, seq)
	if err != nil {
		t.Fatal(err)
	}
	fastPol := &countingGM{}
	fast, err := switchsim.RunCIOQ(cfg, fastPol, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense.M, fast.M) {
		t.Errorf("quiescent fast path diverged from dense:\ndense: %+v\nfast:  %+v", dense.M, fast.M)
	}
	if densePol.scheduleCalls != cfg.Slots*cfg.Speedup {
		t.Fatalf("dense run made %d Schedule calls, want %d", densePol.scheduleCalls, cfg.Slots*cfg.Speedup)
	}
	// The workload spends the large majority of its slots quiescent or
	// idle; requiring a 3x reduction leaves headroom for unlucky burst
	// placement while still failing if only fully-empty stretches (the
	// pre-quiescent behavior) were jumped... those are covered below.
	if fastPol.scheduleCalls*3 > densePol.scheduleCalls {
		t.Errorf("fast path made %d of %d Schedule calls — quiescent slots were not skipped",
			fastPol.scheduleCalls, densePol.scheduleCalls)
	}

	// Tighter still: on a single burst followed by quiet, the scheduler
	// must never be consulted after the input side empties, even though
	// the output queue drains for dozens more slots. Dense-run the prefix
	// to find when the input side empties, then bound the fast run's
	// calls by that point.
	burst := seq[:8*cfg.Inputs]
	one := burst.Clone().Normalize()
	oneCfg := cfg
	oneCfg.Slots = 600
	probe := &countingGM{}
	st, err := switchsim.NewCIOQStepper(oneCfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for st.Switch().QueuedPackets() > 0 || st.Slot() == 0 || next < len(one) {
		var arr []packet.Packet
		for next < len(one) && one[next].Arrival == st.Slot() {
			arr = append(arr, packet.Packet{In: one[next].In, Out: one[next].Out, Value: one[next].Value})
			next++
		}
		if err := st.StepSlot(arr); err != nil {
			t.Fatal(err)
		}
		if st.Switch().InputQueued() == 0 && next == len(one) {
			break
		}
	}
	backlog := st.Switch().OutputBacklog()
	if backlog < 8 {
		t.Fatalf("expected a deep quiescent backlog after the burst, got %d", backlog)
	}
	calls := probe.scheduleCalls
	if err := st.StepIdle(backlog + 100); err != nil {
		t.Fatal(err)
	}
	if probe.scheduleCalls != calls {
		t.Errorf("StepIdle over a quiescent backlog made %d Schedule calls, want 0",
			probe.scheduleCalls-calls)
	}
	if got := st.Switch().QueuedPackets(); got != 0 {
		t.Errorf("switch still holds %d packets after quiescent drain", got)
	}
}

// fuzzSequence decodes raw fuzz bytes into a well-formed sparse arrival
// sequence: each 4-byte group contributes one packet after a 0..255-slot
// gap, so generated traces mix dense bursts with long silences.
func fuzzSequence(raw []byte, inputs, outputs int) packet.Sequence {
	var seq packet.Sequence
	slot := 0
	var id int64
	for k := 0; k+3 < len(raw); k += 4 {
		slot += int(raw[k])
		seq = append(seq, packet.Packet{
			ID:      id,
			Arrival: slot,
			In:      int(raw[k+1]) % inputs,
			Out:     int(raw[k+2]) % outputs,
			Value:   int64(raw[k+3]%100) + 1,
		})
		id++
	}
	return seq
}

// FuzzEventDrivenEquivalence feeds random sparse arrival sequences
// through representative policies on both engines with Validate on (so
// the occupancy index and queues are cross-checked after every idle or
// quiescent jump) and asserts event-driven == dense bit for bit. The
// output buffer depth is fuzzed alongside the geometry and speedup:
// speedup > 1 with a deep output buffer is the regime where converging
// bursts leave backlogged-but-quiescent drain stretches for the fast
// path to advance in closed form.
func FuzzEventDrivenEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add([]byte{255, 1, 2, 90, 200, 0, 1, 3, 0, 1, 1, 60}, uint8(3), uint8(2), uint8(2), uint8(3))
	f.Add([]byte{10, 0, 0, 1, 250, 1, 1, 99, 250, 2, 2, 5, 3, 0, 1, 7}, uint8(4), uint8(4), uint8(1), uint8(7))
	f.Add([]byte{100, 1, 0, 50, 100, 0, 1, 50, 100, 1, 1, 50}, uint8(2), uint8(3), uint8(3), uint8(15))
	// A converging burst then silence: quiescent drain at speedup 3.
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
		denseCfg := cfg
		denseCfg.Dense = true
		for name, mk := range map[string]func() switchsim.CIOQPolicy{
			"gm-rotating": func() switchsim.CIOQPolicy { return &GM{Order: Rotating} },
			"pg":          func() switchsim.CIOQPolicy { return &PG{} },
			"roundrobin":  func() switchsim.CIOQPolicy { return &RoundRobin{} },
		} {
			dense, err := switchsim.RunCIOQ(denseCfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s dense: %v", name, err)
			}
			fast, err := switchsim.RunCIOQ(cfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s event-driven: %v", name, err)
			}
			if !reflect.DeepEqual(dense.M, fast.M) {
				t.Errorf("%s: event-driven diverged:\ndense: %+v\nevent: %+v", name, dense.M, fast.M)
			}
		}
		for name, mk := range map[string]func() switchsim.CrossbarPolicy{
			"cgu-rotating": func() switchsim.CrossbarPolicy { return &CGU{RotatePick: true} },
			"cpg":          func() switchsim.CrossbarPolicy { return &CPG{} },
		} {
			dense, err := switchsim.RunCrossbar(denseCfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s dense: %v", name, err)
			}
			fast, err := switchsim.RunCrossbar(cfg, mk(), seq)
			if err != nil {
				t.Fatalf("%s event-driven: %v", name, err)
			}
			if !reflect.DeepEqual(dense.M, fast.M) {
				t.Errorf("%s: event-driven diverged:\ndense: %+v\nevent: %+v", name, dense.M, fast.M)
			}
		}
	})
}
