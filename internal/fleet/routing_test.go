package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Routing suite: switchsim.RunCIOQ and RunCrossbar hand every sequence a
// kernel batches to this package's engines at batch one, so in this test
// binary a bare policy no longer reaches the reference slot loop. The
// differential tests force that loop through refCIOQ/refCrossbar; the
// tests below pin which engine a run takes and that the two agree.

type idleCIOQ interface {
	switchsim.CIOQPolicy
	switchsim.IdleAdvancer
}

type idleCrossbar interface {
	switchsim.CrossbarPolicy
	switchsim.IdleAdvancer
}

// refCIOQ hides pol's concrete type, which the kernel lookup matches on,
// so switchsim.RunCIOQ runs it on the reference slot loop whether or not
// pol has a kernel. IdleAdvance stays promoted when pol has it: the loop
// takes the quiescent jumps it takes for the bare policy.
func refCIOQ(pol switchsim.CIOQPolicy) switchsim.CIOQPolicy {
	if p, ok := pol.(idleCIOQ); ok {
		return struct{ idleCIOQ }{p}
	}
	return struct{ switchsim.CIOQPolicy }{pol}
}

// refCrossbar is refCIOQ for crossbar policies.
func refCrossbar(pol switchsim.CrossbarPolicy) switchsim.CrossbarPolicy {
	if p, ok := pol.(idleCrossbar); ok {
		return struct{ idleCrossbar }{p}
	}
	return struct{ switchsim.CrossbarPolicy }{pol}
}

// probedRun runs one simulation with fresh engine and fleet probes
// installed and returns its result, the engine counters it moved and the
// number of instances it stepped on a kernel.
func probedRun(t *testing.T, run func() (*switchsim.Result, error)) (*switchsim.Result, map[string]float64, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	fp := obs.NewFleetProbes(reg)
	switchsim.SetProbes(obs.NewEngineProbes(reg))
	SetProbes(fp)
	defer func() {
		switchsim.SetProbes(nil)
		SetProbes(nil)
	}()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if n := fp.FallbackInstances.Value(); n != 0 {
		t.Fatalf("a sequence run counted %d fleet fallbacks", n)
	}
	snap := reg.Snapshot()
	engine := map[string]float64{}
	for _, name := range []string{obs.MetricEngineRuns, obs.MetricEngineSlots, obs.MetricEngineDenseSlots,
		obs.MetricEngineJumpedSlots, obs.MetricEngineJumps} {
		engine[name] = snap[name]
	}
	return res, engine, fp.KernelInstances.Value()
}

// TestSequenceRoutingTakesKernels pins which engine a sequence run takes,
// through the fleet's kernel counter: bare batchable policies take a
// kernel (PG up to 512 ports), while wrapped ones and policies without a
// kernel (KRMM, KRMWM, crossbar-naive, and every policy outside the
// paper's four algorithms: GM's other edge orders, NaiveFIFO, RoundRobin,
// rotating CGU) take the reference loop.
func TestSequenceRoutingTakesKernels(t *testing.T) {
	cfg := func(ports int) switchsim.Config {
		return switchsim.Config{Inputs: ports, Outputs: ports, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}
	}
	seq := func(ports int) packet.Sequence {
		return packet.Bernoulli{Load: 0.5, Values: packet.UniformValues{Hi: 9}}.Generate(rand.New(rand.NewSource(int64(ports))), ports, ports, 12)
	}
	cioq := func(ports int, pol switchsim.CIOQPolicy) func() (*switchsim.Result, error) {
		return func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg(ports), pol, seq(ports)) }
	}
	xbar := func(ports int, pol switchsim.CrossbarPolicy) func() (*switchsim.Result, error) {
		return func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg(ports), pol, seq(ports)) }
	}
	for _, c := range []struct {
		name   string
		run    func() (*switchsim.Result, error)
		kernel bool
	}{
		{"gm-64", cioq(64, &core.GM{}), true},
		{"gm-64-wrapped", cioq(64, refCIOQ(&core.GM{})), false},
		{"gm-65", cioq(65, &core.GM{}), false},
		{"gm-colmajor", cioq(8, &core.GM{Order: core.ColMajor}), false},
		{"gm-rotating", cioq(8, &core.GM{Order: core.Rotating}), false},
		{"gm-longest", cioq(8, &core.GM{Order: core.LongestFirst}), false},
		{"naive-fifo", cioq(8, &core.NaiveFIFO{}), false},
		{"roundrobin", cioq(8, &core.RoundRobin{}), false},
		{"krmm-64", cioq(64, &core.KRMM{}), false},
		{"krmwm-8", cioq(8, &core.KRMWM{}), false},
		{"pg-16", cioq(16, &core.PG{}), true},
		{"pg-17", cioq(17, &core.PG{}), true},
		{"pg-64", cioq(64, &core.PG{}), true},
		{"pg-65", cioq(65, &core.PG{}), true},
		{"pg-512", cioq(512, &core.PG{}), true},
		{"pg-513", cioq(513, &core.PG{}), false},
		{"pg-65-wrapped", cioq(65, refCIOQ(&core.PG{})), false},
		{"cgu-64", xbar(64, &core.CGU{}), true},
		{"cgu-64-wrapped", xbar(64, refCrossbar(&core.CGU{})), false},
		{"cgu-rotating", xbar(8, &core.CGU{RotatePick: true}), false},
		{"cpg-65", xbar(65, &core.CPG{}), false},
		{"crossbar-naive", xbar(8, &core.CrossbarNaive{}), false},
	} {
		_, engine, kernel := probedRun(t, c.run)
		if want := map[bool]int64{true: 1}[c.kernel]; kernel != want {
			t.Errorf("%s: %d kernel instances, want %d", c.name, kernel, want)
		}
		if engine[obs.MetricEngineRuns] != 1 {
			t.Errorf("%s: %v engine runs recorded, want 1", c.name, engine[obs.MetricEngineRuns])
		}
	}
	// Either engine validates the sequence as it admits it, so a bad one
	// fails with the same text either way.
	bad := packet.Sequence{{ID: 1, Arrival: 0, In: 4, Out: 0, Value: 1}}
	_, got := switchsim.RunCIOQ(cfg(4), &core.GM{}, bad)
	_, want := switchsim.RunCIOQ(cfg(4), refCIOQ(&core.GM{}), bad)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("bad sequence: routed error %v, reference error %v", got, want)
	}
}

// routingGens are the traffic shapes FuzzSequenceRouting draws from:
// saturating, converging bursts, crosspoint fill-and-drain, and staged
// flows — dense stepping, quiescent drains and idle jumps all run. The
// second draws values past switchsim.MaxIndexedValue, so PG's cycles move
// between the index walk and the edge scan.
var routingGens = []packet.Generator{
	packet.Bernoulli{Load: 0.9, Values: packet.UniformValues{Hi: 300}},
	packet.BurstyBlocking{OffMean: 25, Burst: 4, Values: packet.ZipfValues{Hi: 3000, S: 1.1}},
	packet.CrossDrain{OffMean: 20, Sweep: 3, Depth: 2, Values: packet.UniformValues{Hi: 9}},
	packet.FlowMix{FlowRate: 0.2, Stages: []float64{0.1, 2, 0}, StageSlots: 15, RatPackets: 2, ElephantPackets: 6,
		Values: packet.TwoValued{Alpha: 20, PHigh: 0.3}},
}

var routingCIOQ = []func() switchsim.CIOQPolicy{
	func() switchsim.CIOQPolicy { return &core.GM{} },
	func() switchsim.CIOQPolicy { return &core.PG{} },
	func() switchsim.CIOQPolicy { return &core.PG{Beta: 3} },
	// Parameters core.Threshold clamps or passes through: both engines
	// must resolve them alike.
	func() switchsim.CIOQPolicy { return &core.PG{Beta: math.NaN()} },
	func() switchsim.CIOQPolicy { return &core.PG{Beta: math.Inf(1)} },
	func() switchsim.CIOQPolicy { return &core.PG{Beta: 0.5} },
}

var routingCrossbar = []func() switchsim.CrossbarPolicy{
	func() switchsim.CrossbarPolicy { return &core.CGU{} },
	func() switchsim.CrossbarPolicy { return &core.CPG{} },
	func() switchsim.CrossbarPolicy { return core.CPGEqualParams() },
	func() switchsim.CrossbarPolicy { return &core.CPG{Beta: math.NaN(), Alpha: math.NaN()} },
	func() switchsim.CrossbarPolicy { return &core.CPG{Beta: math.Inf(1), Alpha: 0.5} },
	func() switchsim.CrossbarPolicy { return &core.CPG{Beta: -3, Alpha: math.Inf(1)} },
}

// FuzzSequenceRouting: a routed sequence run and the same run forced onto
// the reference loop give DeepEqual Results and move the engine probes
// identically, for every routed policy, under every recording and
// validation mode. flags bit 0 sets Dense, bit 1 RecordLatency with
// StreamMetrics, bit 2 RecordSeries, bit 3 Validate, bit 4 RecordLatency
// alone, bit 5 a fixed horizon that cuts the sequence short. Bits 6 and 7
// pick the geometry: 1–6 ports by default; bit 6 alone widens it to 65–72
// ports, where only PG keeps a kernel; bit 7 alone takes 17–64 ports, and
// both take exactly 64×64.
func FuzzSequenceRouting(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(3), uint8(3), uint8(0), uint8(1))
	f.Add(int64(2), uint8(6), uint8(1), uint8(0b1110), uint8(4), uint8(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(0x82), uint8(2), uint8(0b1011), uint8(5), uint8(5), uint8(2), uint8(0))
	f.Add(int64(4), uint8(0x83), uint8(3), uint8(0b110100), uint8(3), uint8(4), uint8(0), uint8(6))
	f.Add(int64(5), uint8(8), uint8(1), uint8(0b11000), uint8(6), uint8(6), uint8(1), uint8(2))
	f.Add(int64(6), uint8(6), uint8(0), uint8(0b1000110), uint8(1), uint8(2), uint8(0), uint8(1))
	f.Add(int64(7), uint8(6), uint8(1), uint8(0b10001000), uint8(30), uint8(47), uint8(1), uint8(0))
	f.Add(int64(8), uint8(7), uint8(1), uint8(0b11101000), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, polSel, genSel, flags, nIn, nOut, speedup, outBuf uint8) {
		inputs, outputs := int(nIn)%6+1, int(nOut)%6+1
		switch flags >> 6 {
		case 1:
			inputs, outputs = inputs+64, outputs+66
		case 2:
			inputs, outputs = int(nIn)%48+17, int(nOut)%48+17
		case 3:
			inputs, outputs = 64, 64
		}
		cfg := switchsim.Config{
			Inputs: inputs, Outputs: outputs,
			InputBuf: int(outBuf)%3 + 1, OutputBuf: int(outBuf)%5 + 1, CrossBuf: int(speedup)%2 + 1,
			Speedup:       int(speedup)%3 + 1,
			Dense:         flags&1 != 0,
			RecordLatency: flags&0x12 != 0,
			StreamMetrics: flags&2 != 0,
			RecordSeries:  flags&4 != 0,
			Validate:      flags&8 != 0,
		}
		if flags&0x20 != 0 {
			cfg.Slots = 40
		}
		seq := routingGens[int(genSel)%len(routingGens)].Generate(rand.New(rand.NewSource(seed)), inputs, outputs, 60)
		var routed, ref func() (*switchsim.Result, error)
		var onKernel bool
		if polSel&0x80 == 0 {
			mk := routingCIOQ[int(polSel)%len(routingCIOQ)]
			onKernel = BatchableCIOQ(cfg, mk)
			routed = func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, mk(), seq) }
			ref = func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, refCIOQ(mk()), seq) }
		} else {
			mk := routingCrossbar[int(polSel&0x7f)%len(routingCrossbar)]
			onKernel = BatchableCrossbar(cfg, mk)
			routed = func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, mk(), seq) }
			ref = func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, refCrossbar(mk()), seq) }
		}
		got, gotProbes, kernel := probedRun(t, routed)
		want, wantProbes, refKernel := probedRun(t, ref)
		if wantKernel := map[bool]int64{true: 1}[onKernel]; kernel != wantKernel || refKernel != 0 {
			t.Fatalf("%s: routed run took %d kernel instances (want %d), reference run %d", want.Policy, kernel, wantKernel, refKernel)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on %dx%d: routed result diverged from the reference loop:\nrouted:    %+v\nreference: %+v",
				want.Policy, inputs, outputs, got, want)
		}
		if !reflect.DeepEqual(gotProbes, wantProbes) {
			t.Errorf("%s: routed run moved the engine probes by %v, reference loop by %v", want.Policy, gotProbes, wantProbes)
		}
	})
}

// allocBytes is the mean heap bytes one call of run allocates.
func allocBytes(t *testing.T, run func() (*switchsim.Result, error)) uint64 {
	t.Helper()
	const rounds = 100
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestTinyRoutedRunsAllocNoMore pins the cost of routing at E1–E4's
// micro geometries, where a run is a handful of slots and construction is
// most of it: a routed run allocates no more bytes than the reference
// loop.
func TestTinyRoutedRunsAllocNoMore(t *testing.T) {
	micro := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 7}
	shallow, fast := micro, micro
	shallow.InputBuf, shallow.OutputBuf = 1, 1
	fast.Speedup = 2
	unit := packet.Bernoulli{Load: 2}
	weighted := packet.Bernoulli{Load: 2, Values: packet.UniformValues{Hi: 20}}
	// Values to 100 widen PG's weight histogram, as E2's Zipf and
	// geometric traffic does.
	valuable := packet.Bernoulli{Load: 2, Values: packet.UniformValues{Hi: 100}}
	for _, cfg := range []switchsim.Config{micro, shallow, fast} {
		for _, c := range []struct {
			name     string
			gen      packet.Generator
			cioq     func() switchsim.CIOQPolicy
			crossbar func() switchsim.CrossbarPolicy
		}{
			{name: "gm", gen: unit, cioq: func() switchsim.CIOQPolicy { return &core.GM{} }},
			{name: "pg", gen: weighted, cioq: func() switchsim.CIOQPolicy { return &core.PG{} }},
			{name: "pg-v100", gen: valuable, cioq: func() switchsim.CIOQPolicy { return &core.PG{} }},
			{name: "cgu", gen: unit, crossbar: func() switchsim.CrossbarPolicy { return &core.CGU{} }},
			{name: "cpg", gen: weighted, crossbar: func() switchsim.CrossbarPolicy { return &core.CPG{} }},
		} {
			seq := c.gen.Generate(rand.New(rand.NewSource(1)), cfg.Inputs, cfg.Outputs, cfg.Slots)
			var routed, ref uint64
			if c.cioq != nil {
				routed = allocBytes(t, func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, c.cioq(), seq) })
				ref = allocBytes(t, func() (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, refCIOQ(c.cioq()), seq) })
			} else {
				routed = allocBytes(t, func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, c.crossbar(), seq) })
				ref = allocBytes(t, func() (*switchsim.Result, error) { return switchsim.RunCrossbar(cfg, refCrossbar(c.crossbar()), seq) })
			}
			if routed > ref {
				t.Errorf("%s ib=%d ob=%d s=%d: routed run allocates %d B, the reference loop %d B", c.name, cfg.InputBuf, cfg.OutputBuf, cfg.Speedup, routed, ref)
			}
		}
	}
}
