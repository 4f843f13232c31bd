package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
// event-driven engine (eventdriven_test.go). The scalar side wraps its
// policy (refCIOQ, refCrossbar): switchsim.RunCIOQ would otherwise run a
// bare batchable policy on this package's kernel.

func fleetCIOQPolicies() map[string]func() switchsim.CIOQPolicy {
	return map[string]func() switchsim.CIOQPolicy{
		"gm":       func() switchsim.CIOQPolicy { return &core.GM{} },
		"pg":       func() switchsim.CIOQPolicy { return &core.PG{} },
		"pg-beta3": func() switchsim.CIOQPolicy { return &core.PG{Beta: 3} },
	}
}

func fleetCrossbarPolicies() map[string]func() switchsim.CrossbarPolicy {
	return map[string]func() switchsim.CrossbarPolicy{
		"cgu":             func() switchsim.CrossbarPolicy { return &core.CGU{} },
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
		// Validate off: the production path, with no per-slot rescan.
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
					fleetRes, err := NewCIOQRunner(mk).Run(rc.cfg, seqs)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d fleet: %v", name, rc.name, gen.Name(), seed, err)
					}
					for k, seq := range seqs {
						scalar, err := switchsim.RunCIOQ(rc.cfg, refCIOQ(mk()), seq)
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
					fleetRes, err := NewCrossbarRunner(mk).Run(rc.cfg, seqs)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d fleet: %v", name, rc.name, gen.Name(), seed, err)
					}
					for k, seq := range seqs {
						scalar, err := switchsim.RunCrossbar(rc.cfg, refCrossbar(mk()), seq)
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
	fast, err := NewCIOQRunner(func() switchsim.CIOQPolicy { return &core.GM{} }).Run(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	denseCfg := cfg
	denseCfg.Dense = true
	dense, err := NewCIOQRunner(func() switchsim.CIOQPolicy { return &core.GM{} }).Run(denseCfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range seqs {
		if !reflect.DeepEqual(dense[k].M, fast[k].M) {
			t.Errorf("instance %d: dense fleet diverged from jumping fleet:\ndense: %+v\nfast:  %+v", k, dense[k].M, fast[k].M)
		}
	}
}

// TestFleetFallbackUnportedPolicy routes policies with no batched kernel
// through the fleet entry points and checks the scalar fallback is taken,
// counted and bit-identical: randomized GM, whose per-cycle shuffles have
// no columnar port, and every policy outside the paper's four algorithms
// (GM's other edge orders, NaiveFIFO, RoundRobin, rotating CGU and the
// naive crossbar).
func TestFleetFallbackUnportedPolicy(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 2, Validate: true}
	gen := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 20}}
	seqs := fleetSeqs(cfg, gen, 3, 3, 60)
	for name, mk := range map[string]func() switchsim.CIOQPolicy{
		"randomized-gm": func() switchsim.CIOQPolicy { return &core.RandomizedGM{} },
		"gm-colmajor":   func() switchsim.CIOQPolicy { return &core.GM{Order: core.ColMajor} },
		"gm-rotating":   func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} },
		"gm-longest":    func() switchsim.CIOQPolicy { return &core.GM{Order: core.LongestFirst} },
		"naive-fifo":    func() switchsim.CIOQPolicy { return &core.NaiveFIFO{} },
		"roundrobin":    func() switchsim.CIOQPolicy { return &core.RoundRobin{} },
	} {
		if BatchableCIOQ(cfg, mk) {
			t.Fatalf("%s unexpectedly reported batchable", name)
		}
		checkFleetPath(t, name, false, seqs,
			func() ([]*switchsim.Result, error) { return NewCIOQRunner(mk).Run(cfg, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq)
			})
	}
	for name, mk := range map[string]func() switchsim.CrossbarPolicy{
		"crossbar-naive": func() switchsim.CrossbarPolicy { return &core.CrossbarNaive{} },
		"cgu-rotating":   func() switchsim.CrossbarPolicy { return &core.CGU{RotatePick: true} },
	} {
		if BatchableCrossbar(cfg, mk) {
			t.Fatalf("%s unexpectedly reported batchable", name)
		}
		checkFleetPath(t, name, false, seqs,
			func() ([]*switchsim.Result, error) { return NewCrossbarRunner(mk).Run(cfg, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCrossbar(cfg, refCrossbar(mk()), seq)
			})
	}
}

// TestFleetGeometryFallback checks that geometries beyond PG's 512-port
// limit take the scalar path rather than erroring.
func TestFleetGeometryFallback(t *testing.T) {
	const ports = maxWidePorts + 1
	cfg := switchsim.Config{Inputs: ports, Outputs: ports, InputBuf: 1, OutputBuf: 1, Speedup: 1}
	mk := func() switchsim.CIOQPolicy { return &core.PG{} }
	if BatchableCIOQ(cfg, mk) {
		t.Fatalf("%dx%d unexpectedly batchable", ports, ports)
	}
	rng := rand.New(rand.NewSource(1))
	seqs := []packet.Sequence{packet.Bernoulli{Load: 0.1}.Generate(rng, ports, ports, 10)}
	rs, err := NewCIOQRunner(mk).Run(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := switchsim.RunCIOQ(cfg, refCIOQ(mk()), seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.M, rs[0].M) {
		t.Error("geometry fallback diverged from scalar")
	}
}

// wideFleetConfigs are geometries past the single-word limit (including a
// non-square one). PG rides the CIOQ engine's multi-word rows there; every
// other policy family takes the scalar fallback.
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
// scalar runs, PG on multi-word rows and the rest through the fallback.
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
					func() ([]*switchsim.Result, error) { return NewCIOQRunner(mk).Run(rc.cfg, seqs) },
					func(seq packet.Sequence) (*switchsim.Result, error) {
						return switchsim.RunCIOQ(rc.cfg, refCIOQ(mk()), seq)
					})
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
					func() ([]*switchsim.Result, error) { return NewCrossbarRunner(mk).Run(rc.cfg, seqs) },
					func(seq packet.Sequence) (*switchsim.Result, error) {
						return switchsim.RunCrossbar(rc.cfg, refCrossbar(mk()), seq)
					})
			}
		}
	}
}

// TestFleetWidePortShift checks the engine against itself across the
// word boundary. PG's decisions depend only on the relative order of
// ports, so shifting every packet's input and output by k on an
// (n+k)-port switch must leave the metrics unchanged. At n = 64 the
// unshifted run takes the one-word fast path and every shifted one the
// multi-word edge scan (two words from k = 1); at n = 40, k = 24 keeps
// both runs on one word and k = 25 straddles bits 63/64. Speedup 2 into
// one-packet output queues makes output preemption, and so β, decide
// transfers.
func TestFleetWidePortShift(t *testing.T) {
	const batch, slots = 3, 120
	gens := []packet.Generator{
		packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 20}},
		packet.PoissonBurst{OffMean: 40, BurstMean: 3, Values: packet.ZipfValues{Hi: 50, S: 1.3}},
	}
	var preempted int64
	for _, c := range []struct{ n, k int }{{64, 1}, {64, 24}, {64, 64}, {40, 24}, {40, 25}} {
		base := switchsim.Config{Inputs: c.n, Outputs: c.n, InputBuf: 2, OutputBuf: 1, Speedup: 2, Validate: true, RecordLatency: true}
		wide := base
		wide.Inputs, wide.Outputs = c.n+c.k, c.n+c.k
		for name, mk := range map[string]func() switchsim.CIOQPolicy{
			"pg":       func() switchsim.CIOQPolicy { return &core.PG{} },
			"pg-beta3": func() switchsim.CIOQPolicy { return &core.PG{Beta: 3} },
		} {
			if !BatchableCIOQ(base, mk) || !BatchableCIOQ(wide, mk) {
				t.Fatalf("%s at %d and %d ports: want both batchable", name, c.n, c.n+c.k)
			}
			for gi, gen := range gens {
				label := fmt.Sprintf("%s/n=%d/k=%d/%s", name, c.n, c.k, gen.Name())
				seqs := fleetSeqs(base, gen, 5+int64(gi), batch, slots)
				shifted := make([]packet.Sequence, len(seqs))
				for b, seq := range seqs {
					shifted[b] = append(packet.Sequence(nil), seq...)
					for x := range shifted[b] {
						shifted[b][x].In += c.k
						shifted[b][x].Out += c.k
					}
				}
				want, err := NewCIOQRunner(mk).Run(base, seqs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := NewCIOQRunner(mk).Run(wide, shifted)
				if err != nil {
					t.Fatalf("%s shifted: %v", label, err)
				}
				for b := range seqs {
					preempted += want[b].M.PreemptedOutput
					if !reflect.DeepEqual(want[b].M, got[b].M) {
						t.Errorf("%s instance %d: shifted run diverged:\nunshifted: %+v\nshifted:   %+v", label, b, want[b].M, got[b].M)
					}
				}
			}
		}
	}
	if preempted == 0 {
		t.Error("no output preemption in any run: the traffic does not exercise PG's eligibility rule")
	}
}

// pathTally is PG for the reference slot loop that tallies the cycles
// its head-value index serves and the switches between the index walk
// and the edge scan. A fleet instance's index is in the same state every
// cycle, so it takes the same paths.
type pathTally struct {
	*core.PG
	walks, scans, switches int
	last                   bool
}

func (p *pathTally) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	ready := sw.IQIndex.Ready()
	if p.walks+p.scans > 0 && ready != p.last {
		p.switches++
	}
	p.last = ready
	if ready {
		p.walks++
	} else {
		p.scans++
	}
	return p.PG.Schedule(sw, slot, cycle)
}

// TestFleetHeadIndexMatchesScalar is the differential suite of PG's index
// walk at 17–64 ports: every instance must match its scalar run bit for
// bit on values straddling switchsim.MaxIndexedValue. Converging bursts
// park heads above it for a while, so the cycles move between the walk
// and the edge scan mid-run; a hotspot into one-packet output queues at
// speedup 2 makes output preemption, and so β, decide transfers.
// Validate checks every instance's index against its head lane each slot.
func TestFleetHeadIndexMatchesScalar(t *testing.T) {
	const batch, slots = 2, 100
	gens := []packet.Generator{
		packet.BurstyBlocking{OffMean: 20, Burst: 8, Values: packet.BimodalValues{LowHi: 40, HighLo: 2000, HighHi: 2100, PHigh: 0.2}},
		packet.Hotspot{Load: 0.8, HotFrac: 0.5, Values: packet.BimodalValues{LowHi: 40, HighLo: 2000, HighHi: 2100, PHigh: 0.01}},
	}
	var preempted int64
	for _, ports := range [][2]int{{17, 17}, {40, 33}, {64, 64}} {
		cfg := switchsim.Config{Inputs: ports[0], Outputs: ports[1], InputBuf: 2, OutputBuf: 1, Speedup: 2, Validate: true, RecordLatency: true}
		for _, beta := range []float64{0, 3} {
			mk := func() switchsim.CIOQPolicy { return &core.PG{Beta: beta} }
			for _, gen := range gens {
				label := fmt.Sprintf("beta=%g/%dx%d/%s", beta, ports[0], ports[1], gen.Name())
				seqs := fleetSeqs(cfg, gen, int64(ports[0]), batch, slots)
				rs, err := NewCIOQRunner(mk).Run(cfg, seqs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tally := &pathTally{PG: &core.PG{Beta: beta}}
				for k, seq := range seqs {
					want, err := switchsim.RunCIOQ(cfg, tally, seq)
					if err != nil {
						t.Fatalf("%s scalar[%d]: %v", label, k, err)
					}
					preempted += want.M.PreemptedOutput
					if !reflect.DeepEqual(want.M, rs[k].M) {
						t.Errorf("%s instance %d: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v", label, k, want.M, rs[k].M)
					}
				}
				if tally.walks == 0 || tally.scans == 0 || tally.switches < 2 {
					t.Errorf("%s: %d walks, %d scans and %d switches between them, want both and a switch there and back",
						label, tally.walks, tally.scans, tally.switches)
				}
			}
		}
	}
	if preempted == 0 {
		t.Error("no output preemption in any run: the traffic does not exercise PG's eligibility rule")
	}
}

// TestFleetWide256MatchesScalar spot-checks the batched-matching regime
// (n = 256: four-word rows, counting-sort weight buckets) and the fallback
// families at the same size against scalar.
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
			func() ([]*switchsim.Result, error) { return NewCIOQRunner(mk).Run(cfg, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq)
			})
	}
	for name, mk := range map[string]func() switchsim.CrossbarPolicy{
		"cgu": func() switchsim.CrossbarPolicy { return &core.CGU{} },
		"cpg": func() switchsim.CrossbarPolicy { return &core.CPG{} },
	} {
		checkFleetPath(t, name, false, seqs,
			func() ([]*switchsim.Result, error) { return NewCrossbarRunner(mk).Run(cfg, seqs) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCrossbar(cfg, refCrossbar(mk()), seq)
			})
	}
}

// TestFleetReuseAcrossResets runs two different batches through one fleet
// and checks the second is unpolluted by the first (storage reuse),
// for GM's occupancy words and pass-through buffer and for PG's head
// lane, head-value index and edge-scan scratch.
func TestFleetReuseAcrossResets(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 4, Speedup: 2, Validate: true, RecordLatency: true}
	genA := packet.Bernoulli{Load: 1.2, Values: packet.UniformValues{Hi: 9}}
	genB := packet.BurstyBlocking{OffMean: 60, Burst: 4, Values: packet.ZipfValues{Hi: 3000, S: 1.1}}
	seqsA := fleetSeqs(cfg, genA, 5, 3, 200)
	seqsB := fleetSeqs(cfg, genB, 11, 3, 500)
	for name, mk := range map[string]func() switchsim.CIOQPolicy{
		"gm": func() switchsim.CIOQPolicy { return &core.GM{} },
		"pg": func() switchsim.CIOQPolicy { return &core.PG{} },
	} {
		f, err := NewCIOQFleet(cfg, mk, 3)
		if err != nil {
			t.Fatal(err)
		}
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
				scalar, err := switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(scalar.M, rs[k].M) {
					t.Errorf("%s instance %d after reset: fleet diverged from scalar:\nscalar: %+v\nfleet:  %+v", name, k, scalar.M, rs[k].M)
				}
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
			scalar, err := switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq)
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
		scalar, err := switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq)
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
			scalar, err := switchsim.RunCrossbar(cfg, refCrossbar(mk()), seq)
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
	mk := func() switchsim.CIOQPolicy { return &core.GM{} }
	gen := packet.PoissonBurst{OffMean: 50, BurstMean: 5, Values: packet.UniformValues{Hi: 9}}
	seqs := fleetSeqs(cfg, gen, 21, 16, 600)
	whole, err := NewCIOQRunner(mk).Run(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 16} {
		for at := 0; at+batch <= len(seqs); at += batch {
			part, err := NewCIOQRunner(mk).Run(cfg, seqs[at:at+batch])
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

// TestFleetErrorsAndRecovery drives every engine through its error paths —
// an unsorted sequence, an out-of-range port, a Reset with no sequences or
// more than the batch holds, Results read before the fleet drains — and
// requires each error to leave the fleet reusable: the next Reset on good
// sequences must reproduce per-instance scalar runs exactly.
func TestFleetErrorsAndRecovery(t *testing.T) {
	type engine interface {
		Reset(seqs []packet.Sequence) error
		Step() bool
		Results() ([]*switchsim.Result, error)
	}
	narrow := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 3, CrossBuf: 1, Speedup: 2, Slots: 70, Validate: true, RecordLatency: true}
	wide := switchsim.Config{Inputs: 80, Outputs: 80, InputBuf: 2, OutputBuf: 2, Speedup: 1, Slots: 70, Validate: true}
	gm := func() switchsim.CIOQPolicy { return &core.GM{} }
	pg := func() switchsim.CIOQPolicy { return &core.PG{} }
	cgu := func() switchsim.CrossbarPolicy { return &core.CGU{} }
	cpg := func() switchsim.CrossbarPolicy { return &core.CPG{} }
	const batch = 3
	for _, ec := range []struct {
		name   string
		cfg    switchsim.Config
		build  func() (engine, error)
		scalar func(packet.Sequence) (*switchsim.Result, error)
	}{
		{"narrow-gm", narrow,
			func() (engine, error) { return NewCIOQFleet(narrow, gm, batch) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCIOQ(narrow, refCIOQ(gm()), seq)
			}},
		{"narrow-pg", narrow,
			func() (engine, error) { return NewCIOQFleet(narrow, pg, batch) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCIOQ(narrow, refCIOQ(pg()), seq)
			}},
		{"crossbar-cgu", narrow,
			func() (engine, error) { return NewCrossbarFleet(narrow, cgu, batch) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCrossbar(narrow, refCrossbar(cgu()), seq)
			}},
		{"crossbar-cpg", narrow,
			func() (engine, error) { return NewCrossbarFleet(narrow, cpg, batch) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCrossbar(narrow, refCrossbar(cpg()), seq)
			}},
		{"wide-pg", wide,
			func() (engine, error) { return NewCIOQFleet(wide, pg, batch) },
			func(seq packet.Sequence) (*switchsim.Result, error) {
				return switchsim.RunCIOQ(wide, refCIOQ(pg()), seq)
			}},
	} {
		gen := packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 20}}
		good := fleetSeqs(ec.cfg, gen, 41, batch, 50)

		f, err := ec.build()
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		// recoverGood resets f onto the good batch, drains it and requires
		// scalar-identical results.
		recoverGood := func(after string) {
			t.Helper()
			if err := f.Reset(good); err != nil {
				t.Fatalf("%s after %s: Reset: %v", ec.name, after, err)
			}
			for f.Step() {
			}
			rs, err := f.Results()
			if err != nil {
				t.Fatalf("%s after %s: Results: %v", ec.name, after, err)
			}
			if len(rs) != len(good) {
				t.Fatalf("%s after %s: %d results for %d sequences", ec.name, after, len(rs), len(good))
			}
			for k, seq := range good {
				want, err := ec.scalar(seq)
				if err != nil {
					t.Fatalf("%s scalar[%d]: %v", ec.name, k, err)
				}
				if !reflect.DeepEqual(want, rs[k]) {
					t.Errorf("%s after %s: instance %d diverged from scalar:\nscalar: %+v\nfleet:  %+v", ec.name, after, k, want, rs[k])
				}
			}
		}
		wantErr := func(label string, err error, want string) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: error %v, want one containing %q", ec.name, label, err, want)
			}
		}
		// Each malformed sequence replaces one instance of the good batch
		// and must fail the batch with exactly the slot loop's error, which
		// is Sequence.Validate's refusal of the same packet.
		n := len(good[1])
		// A packet out of order is admitted in the slot after its
		// predecessor's, so the batch fails in that window (Step returns
		// false) rather than at the horizon.
		early := good[1][n/2-1].Arrival/windowSlots + 1
		for _, bad := range []struct {
			label string
			k     int
			edit  func(packet.Sequence) packet.Sequence
			steps int // the Step that fails the batch, 0 for any
		}{
			// Due at slot 0 after the last arrival: it is admitted at once
			// and refused as out of order at its own index.
			{"unsorted", 1, func(s packet.Sequence) packet.Sequence {
				return append(s, packet.Packet{ID: s[n-1].ID + 1, Arrival: 0, In: 0, Out: 0, Value: 1})
			}, 0},
			{"unsorted mid", 1, func(s packet.Sequence) packet.Sequence { s[n/2].Arrival = 0; return s }, early},
			{"bad port", 2, func(s packet.Sequence) packet.Sequence { s[0].In = ec.cfg.Inputs; return s }, 1},
			{"value 0", 0, func(s packet.Sequence) packet.Sequence { s[n/2].Value = 0; return s }, 0},
			{"repeated id", 1, func(s packet.Sequence) packet.Sequence { s[n/2].ID = s[n/2-1].ID; return s }, 0},
			// Past the fixed horizon, behind a good packet there: no engine
			// admits either, so only the check at the end of the run sees it.
			{"bad past horizon", 1, func(s packet.Sequence) packet.Sequence {
				id, t := s[n-1].ID, ec.cfg.Slots
				return append(s, packet.Packet{ID: id + 1, Arrival: t + 5, In: 0, Out: 0, Value: 1},
					packet.Packet{ID: id + 2, Arrival: t + 6, In: 0, Out: ec.cfg.Outputs, Value: 1})
			}, 0},
		} {
			seqs := append([]packet.Sequence(nil), good...)
			seqs[bad.k] = bad.edit(append(packet.Sequence(nil), good[bad.k]...))
			valid := seqs[bad.k].Validate(ec.cfg.Inputs, ec.cfg.Outputs)
			_, want := ec.scalar(seqs[bad.k])
			if valid == nil || want == nil || want.Error() != switchsim.BadSequence(valid).Error() {
				t.Fatalf("%s %s: slot loop error %v, Sequence.Validate %v", ec.name, bad.label, want, valid)
			}
			if err := f.Reset(seqs); err != nil {
				t.Fatalf("%s %s: Reset: %v", ec.name, bad.label, err)
			}
			steps := 1
			for f.Step() {
				steps++
			}
			if _, err := f.Results(); err == nil || err.Error() != want.Error() {
				t.Errorf("%s %s: error %v, want %q", ec.name, bad.label, err, want)
			}
			if bad.steps > 0 && steps != bad.steps {
				t.Errorf("%s %s: the batch failed at Step %d, want %d", ec.name, bad.label, steps, bad.steps)
			}
			recoverGood(bad.label)
		}
		for _, n := range []int{0, batch + 1} {
			seqs := make([]packet.Sequence, n)
			for k := range seqs {
				seqs[k] = good[k%len(good)]
			}
			if err := f.Reset(seqs); err == nil {
				t.Errorf("%s: Reset with %d sequences for a batch of %d succeeded", ec.name, n, batch)
			}
			recoverGood(fmt.Sprintf("Reset(%d)", n))
		}
		if err := f.Reset(good); err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		_, err = f.Results()
		wantErr("Results before any Step", err, "still live")
		f.Step()
		_, err = f.Results()
		wantErr("Results after one Step", err, "still live")
		recoverGood("early Results")
	}
}
