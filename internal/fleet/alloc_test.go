package fleet

import (
	"math/rand"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Steady-state allocation tests: after Reset and warm-up (latency
// histograms allocated, active list and sleep heap at their high-water
// sizes), one batched Step — a full window of admissions, kernel cycles,
// transmissions and quiescent jumps across the whole batch — must not
// allocate at all.

// allocSeqs builds moderately loaded bursty sequences whose arrival span
// comfortably covers warm-up plus measurement, exercising the dense loop
// and the sleep/wake machinery together.
func allocSeqs(cfg switchsim.Config, batch, slots int) []packet.Sequence {
	seqs := make([]packet.Sequence, batch)
	for k := range seqs {
		rng := rand.New(rand.NewSource(int64(k + 1)))
		gen := packet.Bursty{OnLoad: 0.8, POnOff: 0.05, POffOn: 0.2, Values: packet.UniformValues{Hi: 9}}
		seqs[k] = gen.Generate(rng, cfg.Inputs, cfg.Outputs, slots)
	}
	return seqs
}

// measureStepAllocs warms the fleet up and returns allocations per Step.
// The workload must span at least (warm+measure+2)*windowSlots slots.
func measureStepAllocs(t *testing.T, step func() bool) float64 {
	t.Helper()
	for w := 0; w < 50; w++ {
		if !step() {
			t.Fatal("fleet drained during warm-up; lengthen the workload")
		}
	}
	return testing.AllocsPerRun(100, func() {
		if !step() {
			t.Fatal("fleet drained during measurement; lengthen the workload")
		}
	})
}

func TestFleetCIOQStepZeroAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 4, OutputBuf: 4, Speedup: 2, RecordLatency: true}
	const batch, slots = 8, 8000
	for name, mk := range fleetCIOQPolicies() {
		f, err := NewCIOQFleet(cfg, mk, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Reset(allocSeqs(cfg, batch, slots)); err != nil {
			t.Fatal(err)
		}
		if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
			t.Errorf("%s: %v allocs per batched step in steady state, want 0", name, allocs)
		}
	}
}

func TestFleetCrossbarStepZeroAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 2, RecordLatency: true}
	const batch, slots = 8, 8000
	for name, mk := range fleetCrossbarPolicies() {
		f, err := NewCrossbarFleet(cfg, mk, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Reset(allocSeqs(cfg, batch, slots)); err != nil {
			t.Fatal(err)
		}
		if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
			t.Errorf("%s: %v allocs per batched step in steady state, want 0", name, allocs)
		}
	}
}

func TestFleetQuiescentCycleZeroAllocs(t *testing.T) {
	// Burst/drain/quiesce cycles: deep output buffers at speedup 2 with
	// converging bursts, so steps alternate between dense scheduling,
	// closed-form drains, sleep-heap traffic and wakes.
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 8, OutputBuf: 64, Speedup: 2, RecordLatency: true}
	const batch, slots = 16, 50000
	seqs := make([]packet.Sequence, batch)
	for k := range seqs {
		rng := rand.New(rand.NewSource(int64(k + 7)))
		seqs[k] = packet.BurstyBlocking{OffMean: 120, Burst: 8, Values: packet.UniformValues{Hi: 5}}.
			Generate(rng, cfg.Inputs, cfg.Outputs, slots)
	}
	f, err := NewCIOQFleet(cfg, func() switchsim.CIOQPolicy { return &core.GM{} }, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(seqs); err != nil {
		t.Fatal(err)
	}
	if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
		t.Errorf("quiescent burst/drain cycle: %v allocs per batched step, want 0", allocs)
	}
}

// TestFleetStepZeroAllocsWithProbes re-pins the steady-state zero-alloc
// guarantee with the observability probes installed: the per-delivery
// pass-through counting and the runner's flush bookkeeping must not put
// anything on the heap.
func TestFleetStepZeroAllocsWithProbes(t *testing.T) {
	reg := obs.NewRegistry()
	SetProbes(obs.NewFleetProbes(reg))
	defer SetProbes(nil)

	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 4, OutputBuf: 4, Speedup: 2, RecordLatency: true}
	const batch, slots = 8, 8000
	f, err := NewCIOQFleet(cfg, func() switchsim.CIOQPolicy { return &core.GM{} }, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(allocSeqs(cfg, batch, slots)); err != nil {
		t.Fatal(err)
	}
	if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
		t.Errorf("probed batched step: %v allocs in steady state, want 0", allocs)
	}
}

// TestFleetWeightedStepZeroAllocsWithProbes pins the weighted kernels'
// steady-state Step at zero allocations with the probes installed: the
// ByValue ring insertions, preempt bookkeeping and greedy weighted
// matching must all run on preallocated storage.
func TestFleetWeightedStepZeroAllocsWithProbes(t *testing.T) {
	reg := obs.NewRegistry()
	SetProbes(obs.NewFleetProbes(reg))
	defer SetProbes(nil)

	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 4, OutputBuf: 4, Speedup: 2, RecordLatency: true}
	const batch, slots = 8, 8000
	f, err := NewCIOQFleet(cfg, func() switchsim.CIOQPolicy { return &core.PG{} }, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(allocSeqs(cfg, batch, slots)); err != nil {
		t.Fatal(err)
	}
	if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
		t.Errorf("probed weighted batched step: %v allocs in steady state, want 0", allocs)
	}

	xcfg := cfg
	xcfg.CrossBuf = 2
	fx, err := NewCrossbarFleet(xcfg, func() switchsim.CrossbarPolicy { return &core.CPG{} }, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.Reset(allocSeqs(xcfg, batch, slots)); err != nil {
		t.Fatal(err)
	}
	if allocs := measureStepAllocs(t, fx.Step); allocs != 0 {
		t.Errorf("probed weighted crossbar step: %v allocs in steady state, want 0", allocs)
	}
}

// TestFleetWideStepZeroAllocs pins the wide PG engine's batched Step at
// zero allocations in steady state — multi-word mask scans, the weighted
// scheduler's counting buckets and the ByValue rings all run on storage
// owned by the fleet.
func TestFleetWideStepZeroAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 80, Outputs: 80, InputBuf: 2, OutputBuf: 2, Speedup: 1, RecordLatency: true}
	const batch, slots = 4, 8000
	for name, mk := range map[string]func() switchsim.CIOQPolicy{
		"pg":       func() switchsim.CIOQPolicy { return &core.PG{} },
		"pg-beta3": func() switchsim.CIOQPolicy { return &core.PG{Beta: 3} },
	} {
		f, err := newWideCIOQFleet(cfg, mk, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Reset(allocSeqs(cfg, batch, slots)); err != nil {
			t.Fatal(err)
		}
		if allocs := measureStepAllocs(t, f.Step); allocs != 0 {
			t.Errorf("wide %s: %v allocs per batched step in steady state, want 0", name, allocs)
		}
	}
}
