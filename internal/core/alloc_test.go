package core

import (
	"math/rand"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Steady-state allocation regression tests: after warm-up (queue rings,
// policy scratch and engine scratch all at their high-water sizes), a
// full simulated slot — admission, scheduling cycles, transmission —
// must not allocate at all. This is the "zero-allocation hot path" half
// of the bitset-index refactor; the metamorphic tests in
// reference_test.go are the "identical schedules" half.

// arrivalPattern pre-builds a deterministic cyclic arrival workload so
// the measured loop touches no generator or slice-growth code.
func arrivalPattern(n int, slots int, seed int64, maxValue int64) [][]packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	pat := make([][]packet.Packet, slots)
	for s := range pat {
		k := rng.Intn(n + 1)
		pat[s] = make([]packet.Packet, 0, k)
		for a := 0; a < k; a++ {
			v := int64(1)
			if maxValue > 1 {
				v = rng.Int63n(maxValue) + 1
			}
			pat[s] = append(pat[s], packet.Packet{
				In:    rng.Intn(n),
				Out:   rng.Intn(n),
				Value: v,
			})
		}
	}
	return pat
}

func measureCIOQSlotAllocs(t *testing.T, pol switchsim.CIOQPolicy, maxValue int64) float64 {
	t.Helper()
	const n = 32
	cfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, Speedup: 2}
	st, err := switchsim.NewCIOQStepper(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	pat := arrivalPattern(n, 64, 42, maxValue)
	slot := 0
	step := func() {
		if err := st.StepSlot(pat[slot%len(pat)]); err != nil {
			t.Fatal(err)
		}
		slot++
	}
	for w := 0; w < 256; w++ { // warm-up: reach steady-state occupancy
		step()
	}
	return testing.AllocsPerRun(100, step)
}

func measureCrossbarSlotAllocs(t *testing.T, pol switchsim.CrossbarPolicy, maxValue int64) float64 {
	t.Helper()
	const n = 32
	cfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 2}
	st, err := switchsim.NewCrossbarStepper(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	pat := arrivalPattern(n, 64, 43, maxValue)
	slot := 0
	step := func() {
		if err := st.StepSlot(pat[slot%len(pat)]); err != nil {
			t.Fatal(err)
		}
		slot++
	}
	for w := 0; w < 256; w++ {
		step()
	}
	return testing.AllocsPerRun(100, step)
}

func TestGMSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  switchsim.CIOQPolicy
	}{
		{"rowmajor", &GM{}},
		{"colmajor", &GM{Order: ColMajor}},
		{"rotating", &GM{Order: Rotating}},
		{"longestfirst", &GM{Order: LongestFirst}},
	} {
		if allocs := measureCIOQSlotAllocs(t, tc.pol, 1); allocs != 0 {
			t.Errorf("GM %s: %v allocs/slot in steady state, want 0", tc.name, allocs)
		}
	}
}

func TestPGSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCIOQSlotAllocs(t, &PG{}, 100); allocs != 0 {
		t.Errorf("PG: %v allocs/slot in steady state, want 0", allocs)
	}
}

func TestRoundRobinSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCIOQSlotAllocs(t, &RoundRobin{}, 1); allocs != 0 {
		t.Errorf("RoundRobin: %v allocs/slot in steady state, want 0", allocs)
	}
}

func TestNaiveFIFOSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCIOQSlotAllocs(t, &NaiveFIFO{}, 1); allocs != 0 {
		t.Errorf("NaiveFIFO: %v allocs/slot in steady state, want 0", allocs)
	}
}

func TestCGUSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  switchsim.CrossbarPolicy
	}{
		{"plain", &CGU{}},
		{"rotating", &CGU{RotatePick: true}},
	} {
		if allocs := measureCrossbarSlotAllocs(t, tc.pol, 1); allocs != 0 {
			t.Errorf("CGU %s: %v allocs/slot in steady state, want 0", tc.name, allocs)
		}
	}
}

func TestCPGSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCrossbarSlotAllocs(t, &CPG{}, 100); allocs != 0 {
		t.Errorf("CPG: %v allocs/slot in steady state, want 0", allocs)
	}
}

func TestKKSFIFOSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCrossbarSlotAllocs(t, &KKSFIFO{}, 100); allocs != 0 {
		t.Errorf("KKSFIFO: %v allocs/slot in steady state, want 0", allocs)
	}
}

// TestIdleJumpZeroAllocs asserts the event-driven idle-jump path itself
// stays allocation-free in steady state: once the switch has drained, a
// StepIdle jump of any width performs no allocations on either stepper.
func TestIdleJumpZeroAllocs(t *testing.T) {
	const n = 32
	cioqCfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, Speedup: 2}
	cst, err := switchsim.NewCIOQStepper(cioqCfg, &GM{Order: Rotating})
	if err != nil {
		t.Fatal(err)
	}
	xbarCfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 2}
	xst, err := switchsim.NewCrossbarStepper(xbarCfg, &CGU{RotatePick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: push a burst through so queue rings and policy scratch
	// reach their high-water sizes, then drain completely.
	pat := arrivalPattern(n, 16, 44, 1)
	for _, arr := range pat {
		if err := cst.StepSlot(arr); err != nil {
			t.Fatal(err)
		}
		if err := xst.StepSlot(arr); err != nil {
			t.Fatal(err)
		}
	}
	for cst.Switch().QueuedPackets() > 0 {
		if err := cst.StepSlot(nil); err != nil {
			t.Fatal(err)
		}
	}
	for xst.Switch().QueuedPackets() > 0 {
		if err := xst.StepSlot(nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cst.StepIdle(64); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CIOQ StepIdle: %v allocs/jump, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := xst.StepIdle(64); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Crossbar StepIdle: %v allocs/jump, want 0", allocs)
	}
}

// TestQuiescentJumpZeroAllocs asserts the quiescent drain jump is
// allocation-free in steady state: a full burst / dense-drain / quiescent
// StepIdle cycle — including the closed-form pop-and-account drain of a
// deep output backlog — performs no allocations once queue rings and
// policy scratch are warm.
func TestQuiescentJumpZeroAllocs(t *testing.T) {
	const n = 16
	cioqCfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 8, OutputBuf: 128, Speedup: 2}
	cst, err := switchsim.NewCIOQStepper(cioqCfg, &GM{Order: Rotating})
	if err != nil {
		t.Fatal(err)
	}
	xbarCfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 8, OutputBuf: 128, CrossBuf: 2, Speedup: 2}
	xst, err := switchsim.NewCrossbarStepper(xbarCfg, &CGU{RotatePick: true})
	if err != nil {
		t.Fatal(err)
	}
	// One packet per input, all converging on output 0: at speedup 2 the
	// output queue accumulates a backlog that outlives the input side.
	burst := make([]packet.Packet, n)
	for i := range burst {
		burst[i] = packet.Packet{In: i, Out: 0, Value: 1}
	}
	cioqCycle := func() {
		for k := 0; k < 8; k++ {
			if err := cst.StepSlot(burst); err != nil {
				t.Fatal(err)
			}
		}
		for cst.Switch().InputQueued() > 0 {
			if err := cst.StepSlot(nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := cst.StepIdle(256); err != nil {
			t.Fatal(err)
		}
	}
	xbarCycle := func() {
		for k := 0; k < 8; k++ {
			if err := xst.StepSlot(burst); err != nil {
				t.Fatal(err)
			}
		}
		for xst.Switch().InputQueued() > 0 || xst.Switch().CrossQueued() > 0 {
			if err := xst.StepSlot(nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := xst.StepIdle(256); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up, and a sanity check that the cycle really enters the
	// quiescent regime (a backlog confined to the output queues).
	for w := 0; w < 4; w++ {
		cioqCycle()
		xbarCycle()
	}
	for k := 0; k < 8; k++ {
		if err := cst.StepSlot(burst); err != nil {
			t.Fatal(err)
		}
	}
	for cst.Switch().InputQueued() > 0 {
		if err := cst.StepSlot(nil); err != nil {
			t.Fatal(err)
		}
	}
	if cst.Switch().OutputBacklog() < 2 {
		t.Fatalf("warm-up built no quiescent backlog (max output queue %d)", cst.Switch().OutputBacklog())
	}
	if err := cst.StepIdle(256); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, cioqCycle); allocs != 0 {
		t.Errorf("CIOQ quiescent cycle: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, xbarCycle); allocs != 0 {
		t.Errorf("Crossbar quiescent cycle: %v allocs, want 0", allocs)
	}
}

// TestMicroRunAllocations pins the sequence entry points on the micro shape
// the ratio experiments and the adversary hunts run by the million (2x2,
// buffers 2/2/1, 6 slots): per run they allocate the switch, the policy's
// scratch and the Result, and nothing for the arrival cursor: a heap
// cursor or a SeqStream per run would show here first. PG and CPG are
// pinned too (the E2/E4 micro shapes run them); each also allocates its
// switch's head-value lane and value index.
func TestMicroRunAllocations(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 6}
	seq := packet.Bernoulli{Load: 1.5}.Generate(rand.New(rand.NewSource(3)), 2, 2, cfg.Slots)
	if len(seq) == 0 {
		t.Fatal("empty workload")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := switchsim.RunCIOQ(cfg, &GM{}, seq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 21 {
		t.Errorf("RunCIOQ micro run: %v allocs, want <= 21", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := switchsim.RunCrossbar(cfg, &CGU{}, seq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 25 {
		t.Errorf("RunCrossbar micro run: %v allocs, want <= 25", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := switchsim.RunCIOQ(cfg, &PG{}, seq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 33 {
		t.Errorf("RunCIOQ PG micro run: %v allocs, want <= 33", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := switchsim.RunCrossbar(cfg, &CPG{}, seq); err != nil {
			t.Fatal(err)
		}
	}); allocs > 27 {
		t.Errorf("RunCrossbar CPG micro run: %v allocs, want <= 27", allocs)
	}
}

// TestNextArrivalZeroAllocs pins the no-allocation contract of the
// next-arrival lookup the event-driven engines depend on.
func TestNextArrivalZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := packet.PoissonBurst{OffMean: 40, BurstMean: 4}.Generate(rng, 8, 8, 4000)
	if len(seq) == 0 {
		t.Fatal("empty sequence")
	}
	from := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		next := seq.NextArrival(from)
		if next < 0 {
			from = 0
		} else {
			from = next + 1
		}
	}); allocs != 0 {
		t.Errorf("Sequence.NextArrival: %v allocs/call, want 0", allocs)
	}
}

func TestKRMWMSteadyStateZeroAllocs(t *testing.T) {
	if allocs := measureCIOQSlotAllocs(t, &KRMWM{}, 100); allocs != 0 {
		t.Errorf("KRMWM: %v allocs/slot in steady state, want 0", allocs)
	}
}
