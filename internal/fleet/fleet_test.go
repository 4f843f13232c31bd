package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Differential suite: for every ported policy family, every fleet run
// must produce Metrics reflect.DeepEqual to per-instance scalar
// switchsim runs of the same sequences — including latency histograms,
// per-slot series and the unexported sample counters. This is the same
// oracle pattern that gated the bitset index (reference_test.go) and the
// event-driven engine (eventdriven_test.go).

func fleetCIOQPolicies() map[string]func() switchsim.CIOQPolicy {
	return map[string]func() switchsim.CIOQPolicy{
		"gm":              func() switchsim.CIOQPolicy { return &core.GM{} },
		"gm-colmajor":     func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} },
		"gm-rotating":     func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} },
		"gm-longestfirst": func() switchsim.CIOQPolicy { return &core.GM{Order: core.LongestFirst} },
		"naive-fifo":      func() switchsim.CIOQPolicy { return &core.NaiveFIFO{} },
		"roundrobin":      func() switchsim.CIOQPolicy { return &core.RoundRobin{} },
		"pg":              func() switchsim.CIOQPolicy { return &core.PG{} },
		"pg-beta3":        func() switchsim.CIOQPolicy { return &core.PG{Beta: 3} },
		"krmwm":           func() switchsim.CIOQPolicy { return &core.KRMWM{} },
	}
}

func fleetCrossbarPolicies() map[string]func() switchsim.CrossbarPolicy {
	return map[string]func() switchsim.CrossbarPolicy{
		"cgu":             func() switchsim.CrossbarPolicy { return &core.CGU{} },
		"cgu-rotating":    func() switchsim.CrossbarPolicy { return &core.CGU{RotatePick: true} },
		"cpg":             func() switchsim.CrossbarPolicy { return &core.CPG{} },
		"cpg-equalparams": func() switchsim.CrossbarPolicy { return core.CPGEqualParams() },
	}
}

type fleetConfig struct {
	name string
	cfg  switchsim.Config
}

func fleetConfigs() []fleetConfig {
	return []fleetConfig{
		{"4x4", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}},
		// Validate off: covers the production path where the transposed
		// occupancy rows are maintained lazily (only for kernels that
		// read them).
		{"4x4-novalidate", switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 3, CrossBuf: 1, Speedup: 2, RecordLatency: true}},
		{"5x3-speedup2-latency", switchsim.Config{Inputs: 5, Outputs: 3, InputBuf: 3, OutputBuf: 2, CrossBuf: 2, Speedup: 2, Validate: true, RecordLatency: true}},
		{"8x8-speedup3-series", switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 4, OutputBuf: 8, CrossBuf: 1, Speedup: 3, Validate: true, RecordSeries: true}},
		// Deep output buffers at speedup 4: converging bursts park long
		// drain-only backlogs, so the per-instance quiescent jump carries
		// most of the work.
		{"6x6-speedup4-drain", switchsim.Config{Inputs: 6, Outputs: 6, InputBuf: 4, OutputBuf: 32, CrossBuf: 2, Speedup: 4, Validate: true, RecordLatency: true, RecordSeries: true}},
	}
}

// fleetWorkloads mixes saturating, bursty and sparse shapes so the
// batched dense loop, the quiescent drain and the idle jump all run, and
// instances in one batch desynchronize (different horizons, different
// quiescent stretches).
func fleetWorkloads() []packet.Generator {
	return []packet.Generator{
		packet.Bernoulli{Load: 0.95, Values: packet.UniformValues{Hi: 20}},
		packet.Bernoulli{Load: 1.5},
		packet.Hotspot{Load: 1.2, HotFrac: 0.8, Values: packet.TwoValued{Alpha: 50, PHigh: 0.2}},
		packet.PoissonBurst{OffMean: 80, BurstMean: 4, Values: packet.UniformValues{Hi: 30}},
		packet.BurstyBlocking{OffMean: 150, Burst: 6, Values: packet.ZipfValues{Hi: 50, S: 1.3}},
	}
}

// fleetSeqs draws one seeded sequence per instance; instance k gets its
// own derived seed so batch members differ, as ratio fleets do.
func fleetSeqs(cfg switchsim.Config, gen packet.Generator, seed int64, batch, slots int) []packet.Sequence {
	seqs := make([]packet.Sequence, batch)
	for k := range seqs {
		rng := rand.New(rand.NewSource(seed + int64(k)*101))
		seqs[k] = gen.Generate(rng, cfg.Inputs, cfg.Outputs, slots)
	}
	return seqs
}

func TestFleetCIOQMatchesScalar(t *testing.T) {
	const batch = 5
	for name, mk := range fleetCIOQPolicies() {
		if !BatchableCIOQ(switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 1, OutputBuf: 1, Speedup: 1}, mk) {
			t.Fatalf("%s: expected a batched kernel", name)
		}
		for _, rc := range fleetConfigs() {
			for gi, gen := range fleetWorkloads() {
				for seed := int64(1); seed <= 2; seed++ {
					seqs := fleetSeqs(rc.cfg, gen, seed*31+int64(gi), batch, 400)
					fleetRes, err := RunCIOQ(rc.cfg, mk, seqs)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d fleet: %v", name, rc.name, gen.Name(), seed, err)
					}
					for k, seq := range seqs {
						scalar, err := switchsim.RunCIOQ(rc.cfg, mk(), seq)
						if err != nil {
							t.Fatalf("%s/%s/%s seed %d scalar[%d]: %v", name, rc.name, gen.Name(), seed, k, err)
						}
						if !reflect.DeepEqual(scalar.M, fleetRes[k].M) {
							t.Errorf("%s/%s/%s seed %d instance %d: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v",
								name, rc.name, gen.Name(), seed, k, scalar.M, fleetRes[k].M)
						}
						if scalar.Slots != fleetRes[k].Slots {
							t.Errorf("%s/%s/%s seed %d instance %d: horizon mismatch %d vs %d",
								name, rc.name, gen.Name(), seed, k, fleetRes[k].Slots, scalar.Slots)
						}
						if scalar.Policy != fleetRes[k].Policy {
							t.Errorf("%s instance %d: policy name %q vs %q", name, k, fleetRes[k].Policy, scalar.Policy)
						}
					}
				}
			}
		}
	}
}

func TestFleetCrossbarMatchesScalar(t *testing.T) {
	const batch = 5
	for name, mk := range fleetCrossbarPolicies() {
		if !BatchableCrossbar(switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 1}, mk) {
			t.Fatalf("%s: expected a batched kernel", name)
		}
		for _, rc := range fleetConfigs() {
			for gi, gen := range fleetWorkloads() {
				for seed := int64(1); seed <= 2; seed++ {
					seqs := fleetSeqs(rc.cfg, gen, seed*17+int64(gi), batch, 400)
					fleetRes, err := RunCrossbar(rc.cfg, mk, seqs)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d fleet: %v", name, rc.name, gen.Name(), seed, err)
					}
					for k, seq := range seqs {
						scalar, err := switchsim.RunCrossbar(rc.cfg, mk(), seq)
						if err != nil {
							t.Fatalf("%s/%s/%s seed %d scalar[%d]: %v", name, rc.name, gen.Name(), seed, k, err)
						}
						if !reflect.DeepEqual(scalar.M, fleetRes[k].M) {
							t.Errorf("%s/%s/%s seed %d instance %d: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v",
								name, rc.name, gen.Name(), seed, k, scalar.M, fleetRes[k].M)
						}
					}
				}
			}
		}
	}
}

// TestFleetDenseMatchesJumping pins the fleet's own dense escape hatch:
// Config.Dense disables the per-instance quiescent jump but must not
// change a single metric.
func TestFleetDenseMatchesJumping(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 8, Speedup: 2, Validate: true, RecordLatency: true}
	gen := packet.BurstyBlocking{OffMean: 120, Burst: 5, Values: packet.UniformValues{Hi: 10}}
	seqs := fleetSeqs(cfg, gen, 9, 4, 1200)
	fast, err := RunCIOQ(cfg, func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }, seqs)
	if err != nil {
		t.Fatal(err)
	}
	denseCfg := cfg
	denseCfg.Dense = true
	dense, err := RunCIOQ(denseCfg, func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range seqs {
		if !reflect.DeepEqual(dense[k].M, fast[k].M) {
			t.Errorf("instance %d: dense fleet diverged from jumping fleet:\ndense: %+v\nfast:  %+v", k, dense[k].M, fast[k].M)
		}
	}
}

// TestFleetFallbackUnportedPolicy routes a policy with no batched kernel
// (randomized GM, whose per-cycle shuffles have no columnar port) through
// the fleet entry points and checks the scalar fallback is taken and
// bit-identical.
func TestFleetFallbackUnportedPolicy(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 2, Validate: true}
	mk := func() switchsim.CIOQPolicy { return &core.RandomizedGM{} }
	if BatchableCIOQ(cfg, mk) {
		t.Fatal("RandomizedGM unexpectedly reported batchable")
	}
	gen := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 20}}
	seqs := fleetSeqs(cfg, gen, 3, 3, 60)
	rs, err := RunCIOQ(cfg, mk, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for k, seq := range seqs {
		scalar, err := switchsim.RunCIOQ(cfg, mk(), seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar.M, rs[k].M) {
			t.Errorf("instance %d: fallback diverged:\nscalar: %+v\nfleet:  %+v", k, scalar.M, rs[k].M)
		}
	}

	mkX := func() switchsim.CrossbarPolicy { return &core.CrossbarNaive{} }
	if BatchableCrossbar(cfg, mkX) {
		t.Fatal("CrossbarNaive unexpectedly reported batchable")
	}
	rsX, err := RunCrossbar(cfg, mkX, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for k, seq := range seqs {
		scalar, err := switchsim.RunCrossbar(cfg, mkX(), seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar.M, rsX[k].M) {
			t.Errorf("instance %d: crossbar fallback diverged", k)
		}
	}
}

// TestFleetGeometryFallback checks that geometries beyond the wide
// engine's limit take the scalar path rather than erroring, even for PG.
func TestFleetGeometryFallback(t *testing.T) {
	const ports = maxWidePorts + 1
	cfg := switchsim.Config{Inputs: ports, Outputs: ports, InputBuf: 1, OutputBuf: 1, Speedup: 1}
	mk := func() switchsim.CIOQPolicy { return &core.PG{} }
	if BatchableCIOQ(cfg, mk) {
		t.Fatalf("%dx%d unexpectedly batchable", ports, ports)
	}
	rng := rand.New(rand.NewSource(1))
	seqs := []packet.Sequence{packet.Bernoulli{Load: 0.1}.Generate(rng, ports, ports, 10)}
	rs, err := RunCIOQ(cfg, mk, seqs)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := switchsim.RunCIOQ(cfg, mk(), seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.M, rs[0].M) {
		t.Error("geometry fallback diverged from scalar")
	}
}

// wideFleetConfigs are geometries past the single-word limit (including a
// non-square case whose input- and output-indexed rows have different
// word counts). PG rides the multi-word wide engine there; every other
// policy family takes the scalar fallback.
func wideFleetConfigs() []fleetConfig {
	return []fleetConfig{
		{"65x65", switchsim.Config{Inputs: 65, Outputs: 65, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}},
		{"96x70-speedup2", switchsim.Config{Inputs: 96, Outputs: 70, InputBuf: 3, OutputBuf: 2, CrossBuf: 2, Speedup: 2, Validate: true, RecordLatency: true}},
	}
}

// checkFleetPath runs one batch through a fleet runner with probes
// installed and requires every result to be DeepEqual to a looped scalar
// run. The batch must take the kernel path when kernel is set, and
// otherwise the scalar fallback, which RecordFallback must count.
func checkFleetPath(t *testing.T, label string, kernel bool, seqs []packet.Sequence,
	run func() ([]*switchsim.Result, error), scalar func(packet.Sequence) (*switchsim.Result, error)) {
	t.Helper()
	p := obs.NewFleetProbes(obs.NewRegistry())
	SetProbes(p)
	defer SetProbes(nil)
	rs, err := run()
	if err != nil {
		t.Fatalf("%s fleet: %v", label, err)
	}
	for k, seq := range seqs {
		want, err := scalar(seq)
		if err != nil {
			t.Fatalf("%s scalar[%d]: %v", label, k, err)
		}
		if !reflect.DeepEqual(want.M, rs[k].M) {
			t.Errorf("%s instance %d: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v", label, k, want.M, rs[k].M)
		}
	}
	wantKernel, wantFallback := int64(0), int64(len(seqs))
	if kernel {
		wantKernel, wantFallback = wantFallback, wantKernel
	}
	if got := p.KernelInstances.Value(); got != wantKernel {
		t.Errorf("%s: %d kernel instances, want %d", label, got, wantKernel)
	}
	if got := p.FallbackInstances.Value(); got != wantFallback {
		t.Errorf("%s: %d fallback instances, want %d", label, got, wantFallback)
	}
}

// TestFleetWideMatchesScalar is the differential suite above 64 ports:
// every ported policy family must stay bit-identical to per-instance
// scalar runs, PG through the wide engine and the rest through the
// fallback.
func TestFleetWideMatchesScalar(t *testing.T) {
	const batch = 3
	gens := []packet.Generator{
		packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 20}},
		packet.PoissonBurst{OffMean: 40, BurstMean: 3, Values: packet.ZipfValues{Hi: 50, S: 1.3}},
	}
	for name, mk := range fleetCIOQPolicies() {
		_, pg := mk().(*core.PG)
		for _, rc := range wideFleetConfigs() {
			if got := BatchableCIOQ(rc.cfg, mk); got != pg {
				t.Fatalf("%s/%s: BatchableCIOQ = %v, want %v", name, rc.name, got, pg)
			}
			for gi, gen := range gens {
				seqs := fleetSeqs(rc.cfg, gen, 7+int64(gi), batch, 150)
				checkFleetPath(t, name+"/"+rc.name+"/"+gen.Name(), pg, seqs,
					func() ([]*switchsim.Result, error) { return RunCIOQ(rc.cfg, mk, seqs) },
					func(seq packet.Sequence) (*switchsim.Result, error) { return switchsim.RunCIOQ(rc.cfg, mk(), seq) })
			}
		}
	}
	for name, mk := range fleetCrossbarPolicies() {
		for _, rc := range wideFleetConfigs() {
			if BatchableCrossbar(rc.cfg, mk) {
				t.Fatalf("%s/%s: unexpectedly batchable", name, rc.name)
			}
			for gi, gen := range gens {
				seqs := fleetSeqs(rc.cfg, gen, 19+int64(gi), batch, 150)
				checkFleetPath(t, name+"/"+rc.name+"/"+gen.Name(), false, seqs,
					func() ([]*switchsim.Result, error) { return RunCrossbar(rc.cfg, mk, seqs) },
					func(seq packet.Sequence) (*switchsim.Result, error) { return switchsim.RunCrossbar(rc.cfg, mk(), seq) })
			}
		}
	}
}

// TestFleetWide256MatchesScalar spot-checks the batched-matching regime
// (n = 256: four-word rows, counting-sort weight buckets) and the fallback
// families at the same size against scalar. The Hungarian policy is left
// to the 65–96-port tier above: its scalar run is cubic in ports.
func TestFleetWide256MatchesScalar(t *testing.T) {
	cfg := switchsim.Config{Inputs: 256, Outputs: 256, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}
	gen := packet.Bernoulli{Load: 0.6, Values: packet.UniformValues{Hi: 30}}
	seqs := fleetSeqs(cfg, gen, 3, 2, 60)
	for name, mk := range map[string]func() switchsim.CIOQPolicy{
		"gm-longestfirst": func() switchsim.CIOQPolicy { return &core.GM{Order: core.LongestFirst} },
		"roundrobin":      func() switchsim.CIOQPolicy { return &core.RoundRobin{} },
		"pg":              func() switchsim.CIOQPolicy { return &core.PG{} },
	} {
		checkFleetPath(t, name, name == "pg", seqs,
			func() ([]*switchsim.Result, error) { return RunCIOQ(cfg, mk, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, mk(), seq) })
	}
	for name, mk := range map[string]func() switchsim.CrossbarPolicy{
		"cgu": func() switchsim.CrossbarPolicy { return &core.CGU{} },
		"cpg": func() switchsim.CrossbarPolicy { return &core.CPG{} },
	} {
		checkFleetPath(t, name, false, seqs,
			func() ([]*switchsim.Result, error) { return RunCrossbar(cfg, mk, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, mk(), seq) })
	}
}

// TestFleetReuseAcrossResets runs two different batches through one fleet
// and checks the second is unpolluted by the first (storage reuse).
func TestFleetReuseAcrossResets(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 4, Speedup: 2, Validate: true, RecordLatency: true}
	mk := func() switchsim.CIOQPolicy { return &core.RoundRobin{} }
	f, err := NewCIOQFleet(cfg, mk, 3)
	if err != nil {
		t.Fatal(err)
	}
	genA := packet.Bernoulli{Load: 1.2}
	genB := packet.BurstyBlocking{OffMean: 60, Burst: 4}
	seqsA := fleetSeqs(cfg, genA, 5, 3, 200)
	seqsB := fleetSeqs(cfg, genB, 11, 3, 500)
	for _, seqs := range [][]packet.Sequence{seqsA, seqsB, seqsA} {
		if err := f.Reset(seqs); err != nil {
			t.Fatal(err)
		}
		for f.Step() {
		}
		rs, err := f.Results()
		if err != nil {
			t.Fatal(err)
		}
		for k, seq := range seqs {
			scalar, err := switchsim.RunCIOQ(cfg, mk(), seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scalar.M, rs[k].M) {
				t.Errorf("instance %d after reset: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v", k, scalar.M, rs[k].M)
			}
		}
	}
}

// TestRunnerReusesFleetAcrossShrinkingBatches drives one CIOQRunner
// through a chunk stream whose final chunk runs short — the ratio-harness
// shape — and checks every result matches a per-batch scalar run, that
// the fleet object is constructed exactly once, and that partial-batch
// Resets leave no residue for the next full batch.
func TestRunnerReusesFleetAcrossShrinkingBatches(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 4, Speedup: 2, Validate: true, RecordLatency: true}
	mk := func() switchsim.CIOQPolicy { return &core.GM{} }
	gen := packet.PoissonBurst{OffMean: 30, BurstMean: 4}
	seqs := fleetSeqs(cfg, gen, 31, 14, 300)
	r := NewCIOQRunner(mk)
	var firstFleet fleetEngine
	for _, chunk := range [][]packet.Sequence{seqs[:6], seqs[6:12], seqs[12:14], seqs[:6]} {
		rs, err := r.Run(cfg, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if firstFleet == nil {
			firstFleet = r.f
		} else if r.f != firstFleet {
			t.Fatal("runner rebuilt its fleet for a batch that fit")
		}
		if len(rs) != len(chunk) {
			t.Fatalf("got %d results for %d sequences", len(rs), len(chunk))
		}
		for k, seq := range chunk {
			scalar, err := switchsim.RunCIOQ(cfg, mk(), seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scalar.M, rs[k].M) {
				t.Errorf("chunk instance %d: runner diverged from scalar:\nscalar: %+v\nrunner: %+v", k, scalar.M, rs[k].M)
			}
		}
	}
	// A larger batch forces one regrow, after which results still match.
	rs, err := r.Run(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if r.f == firstFleet {
		t.Fatal("runner kept an undersized fleet for a larger batch")
	}
	for k, seq := range seqs {
		scalar, err := switchsim.RunCIOQ(cfg, mk(), seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar.M, rs[k].M) {
			t.Errorf("regrown instance %d diverged from scalar", k)
		}
	}
}

// TestCrossbarRunnerReuse is the crossbar analogue of the runner reuse
// check, over a shrinking chunk stream.
func TestCrossbarRunnerReuse(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 2, Validate: true}
	mk := func() switchsim.CrossbarPolicy { return &core.CGU{} }
	gen := packet.Hotspot{Load: 1.4, HotFrac: 0.7}
	seqs := fleetSeqs(cfg, gen, 13, 10, 120)
	r := NewCrossbarRunner(mk)
	for _, chunk := range [][]packet.Sequence{seqs[:7], seqs[7:10], seqs[:7]} {
		rs, err := r.Run(cfg, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for k, seq := range chunk {
			scalar, err := switchsim.RunCrossbar(cfg, mk(), seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scalar.M, rs[k].M) {
				t.Errorf("crossbar chunk instance %d: runner diverged from scalar", k)
			}
		}
	}
}

// TestFleetBatchSizeInvariance: the same sequence must produce the same
// metrics whatever batch it is embedded in.
func TestFleetBatchSizeInvariance(t *testing.T) {
	cfg := switchsim.Config{Inputs: 6, Outputs: 6, InputBuf: 3, OutputBuf: 6, Speedup: 2, Validate: true, RecordLatency: true}
	mk := func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }
	gen := packet.PoissonBurst{OffMean: 50, BurstMean: 5, Values: packet.UniformValues{Hi: 9}}
	seqs := fleetSeqs(cfg, gen, 21, 16, 600)
	whole, err := RunCIOQ(cfg, mk, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 16} {
		for at := 0; at+batch <= len(seqs); at += batch {
			part, err := RunCIOQ(cfg, mk, seqs[at:at+batch])
			if err != nil {
				t.Fatal(err)
			}
			for x := range part {
				if !reflect.DeepEqual(whole[at+x].M, part[x].M) {
					t.Errorf("batch %d offset %d: instance metrics depend on batch embedding", batch, at+x)
				}
			}
		}
	}
}
