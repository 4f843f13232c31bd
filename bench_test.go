package qswitch

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"qswitch/internal/adversary"
	"qswitch/internal/core"
	"qswitch/internal/experiments"
	"qswitch/internal/fleet"
	"qswitch/internal/matching"
	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// ---------------------------------------------------------------------------
// One benchmark per experiment (E1-E16). Each iteration regenerates the
// experiment's tables in quick mode; `go test -bench .` therefore exercises
// the entire reproduction pipeline and reports how expensive each
// table/figure is to produce.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Quick: true, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1GMRatio(b *testing.B)           { benchExperiment(b, "e1") }
func BenchmarkE2PGRatio(b *testing.B)           { benchExperiment(b, "e2") }
func BenchmarkE3CGURatio(b *testing.B)          { benchExperiment(b, "e3") }
func BenchmarkE4CPGParams(b *testing.B)         { benchExperiment(b, "e4") }
func BenchmarkE5MatchingCost(b *testing.B)      { benchExperiment(b, "e5") }
func BenchmarkE6Speedup(b *testing.B)           { benchExperiment(b, "e6") }
func BenchmarkE7Buffers(b *testing.B)           { benchExperiment(b, "e7") }
func BenchmarkE8Adversarial(b *testing.B)       { benchExperiment(b, "e8") }
func BenchmarkE9CIOQvsCrossbar(b *testing.B)    { benchExperiment(b, "e9") }
func BenchmarkE10ValueDists(b *testing.B)       { benchExperiment(b, "e10") }
func BenchmarkE11Rect(b *testing.B)             { benchExperiment(b, "e11") }
func BenchmarkE12MaximalVsMaximum(b *testing.B) { benchExperiment(b, "e12") }
func BenchmarkE13EdgeOrder(b *testing.B)        { benchExperiment(b, "e13") }
func BenchmarkE14Randomization(b *testing.B)    { benchExperiment(b, "e14") }
func BenchmarkE15FIFO(b *testing.B)             { benchExperiment(b, "e15") }
func BenchmarkE16IQModel(b *testing.B)          { benchExperiment(b, "e16") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: per-slot policy cost on realistic switch sizes. These
// back the paper's efficiency claim with end-to-end numbers (E5 measures
// the matching engines in isolation).
// ---------------------------------------------------------------------------

func benchCIOQPolicy(b *testing.B, n int, mk func() switchsim.CIOQPolicy, weighted bool) {
	const slots = 200
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4,
		Speedup: 1, Slots: slots,
	}
	var vd packet.ValueDist = packet.UnitValues{}
	if weighted {
		vd = packet.UniformValues{Hi: 100}
	}
	rng := rand.New(rand.NewSource(1))
	seq := packet.Bernoulli{Load: 0.95, Values: vd}.Generate(rng, n, n, slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCIOQ(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

func benchCrossbarPolicy(b *testing.B, n int, mk func() switchsim.CrossbarPolicy, weighted bool) {
	const slots = 200
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
		Speedup: 1, Slots: slots,
	}
	var vd packet.ValueDist = packet.UnitValues{}
	if weighted {
		vd = packet.UniformValues{Hi: 100}
	}
	rng := rand.New(rand.NewSource(1))
	seq := packet.Bernoulli{Load: 0.95, Values: vd}.Generate(rng, n, n, slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCrossbar(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

func BenchmarkCIOQGM32(b *testing.B) {
	benchCIOQPolicy(b, 32, func() switchsim.CIOQPolicy { return &core.GM{} }, false)
}
func BenchmarkCIOQGM64(b *testing.B) {
	benchCIOQPolicy(b, 64, func() switchsim.CIOQPolicy { return &core.GM{} }, false)
}
func BenchmarkCIOQGMRotating64(b *testing.B) {
	benchCIOQPolicy(b, 64, func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} }, false)
}
func BenchmarkCIOQKRMM32(b *testing.B) {
	benchCIOQPolicy(b, 32, func() switchsim.CIOQPolicy { return &core.KRMM{} }, false)
}
func BenchmarkCIOQKRMM64(b *testing.B) {
	benchCIOQPolicy(b, 64, func() switchsim.CIOQPolicy { return &core.KRMM{} }, false)
}
func BenchmarkCIOQPG32(b *testing.B) {
	benchCIOQPolicy(b, 32, func() switchsim.CIOQPolicy { return &core.PG{} }, true)
}
func BenchmarkCIOQPG64(b *testing.B) {
	benchCIOQPolicy(b, 64, func() switchsim.CIOQPolicy { return &core.PG{} }, true)
}
func BenchmarkCIOQKRMWM32(b *testing.B) {
	benchCIOQPolicy(b, 32, func() switchsim.CIOQPolicy { return &core.KRMWM{} }, true)
}
func BenchmarkCIOQRoundRobin32(b *testing.B) {
	benchCIOQPolicy(b, 32, func() switchsim.CIOQPolicy { return &core.RoundRobin{} }, false)
}
func BenchmarkCIOQRoundRobin64(b *testing.B) {
	benchCIOQPolicy(b, 64, func() switchsim.CIOQPolicy { return &core.RoundRobin{} }, false)
}
func BenchmarkCrossbarCGU32(b *testing.B) {
	benchCrossbarPolicy(b, 32, func() switchsim.CrossbarPolicy { return &core.CGU{} }, false)
}
func BenchmarkCrossbarCGU64(b *testing.B) {
	benchCrossbarPolicy(b, 64, func() switchsim.CrossbarPolicy { return &core.CGU{} }, false)
}
func BenchmarkCrossbarCPG32(b *testing.B) {
	benchCrossbarPolicy(b, 32, func() switchsim.CrossbarPolicy { return &core.CPG{} }, true)
}
func BenchmarkCrossbarCPG64(b *testing.B) {
	benchCrossbarPolicy(b, 64, func() switchsim.CrossbarPolicy { return &core.CPG{} }, true)
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkQueuePushPreempt(b *testing.B) {
	q := queue.New(16, queue.ByValue)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushPreempt(packet.Packet{ID: int64(i), Value: rng.Int63n(1000) + 1})
		if q.Len() == 16 && i%16 == 0 {
			q.PopHead()
		}
	}
}

func benchMatchingEngine(b *testing.B, n int, engine func(edges []matching.Edge, adj [][]int, w [][]int64)) {
	rng := rand.New(rand.NewSource(2))
	var edges []matching.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, matching.Edge{U: i, V: j, W: rng.Int63n(100) + 1})
			}
		}
	}
	adj := matching.AdjFromEdges(n, edges)
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range edges {
		w[e.U][e.V] = e.W
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine(edges, adj, w)
	}
}

func BenchmarkMatchingGreedy64(b *testing.B) {
	benchMatchingEngine(b, 64, func(e []matching.Edge, _ [][]int, _ [][]int64) {
		matching.GreedyMaximal(64, 64, e)
	})
}
func BenchmarkMatchingGreedyWeighted64(b *testing.B) {
	var weighted matching.WeightedScheduler
	benchMatchingEngine(b, 64, func(e []matching.Edge, _ [][]int, _ [][]int64) {
		weighted.GreedyMaximalWeighted(64, 64, e)
	})
}
func BenchmarkMatchingHopcroftKarp64(b *testing.B) {
	benchMatchingEngine(b, 64, func(_ []matching.Edge, adj [][]int, _ [][]int64) {
		matching.HopcroftKarp(64, 64, adj)
	})
}
func BenchmarkMatchingHungarian64(b *testing.B) {
	benchMatchingEngine(b, 64, func(_ []matching.Edge, _ [][]int, w [][]int64) {
		matching.Hungarian(w)
	})
}

// BenchmarkMatchingHungarianSolver64 is BenchmarkMatchingHungarian64 on one
// reused solver, as KR-MWM calls it every scheduling cycle: the solve
// alone, without its scratch allocation.
func BenchmarkMatchingHungarianSolver64(b *testing.B) {
	var h matching.HungarianSolver
	benchMatchingEngine(b, 64, func(_ []matching.Edge, _ [][]int, w [][]int64) {
		h.Solve(w)
	})
}

func BenchmarkExactUnitOPT(b *testing.B) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1}
	rng := rand.New(rand.NewSource(3))
	seq := packet.Bernoulli{Load: 1.5}.Generate(rng, 2, 2, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.ExactUnitCIOQ(cfg, seq); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExactJudge solves one table row of an E1–E4 experiment per
// iteration: the experiment's own shape and generator, seeds base..base+
// runs-1, sequences generated outside the timed region. It reports µs a
// seed, the unit of the suite's offline.exact_*_us_per_seed layer metrics.
func benchExactJudge(b *testing.B, cfg switchsim.Config, gen packet.Generator, base int64, runs int,
	judge func(switchsim.Config, packet.Sequence) (int64, error)) {
	seqs := make([]packet.Sequence, runs)
	for k := range seqs {
		seqs[k] = gen.Generate(rand.New(rand.NewSource(base+int64(k))), cfg.Inputs, cfg.Outputs, cfg.Slots)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seq := range seqs {
			if _, err := judge(cfg, seq); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*runs), "us/seed")
}

// E3's heaviest row: CGU's judge at speedup 2, 2x2 crossbar, 6 slots of
// Bernoulli 1.5.
func BenchmarkExactUnitCrossbarE3(b *testing.B) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 2, Slots: 6}
	benchExactJudge(b, cfg, packet.Bernoulli{Load: 1.5}, 1001, 100, offline.ExactUnitCrossbar)
}

// E1's heaviest row: GM's judge at speedup 2, 7 slots of Bernoulli 2.0.
func BenchmarkExactUnitCIOQE1(b *testing.B) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 2, Slots: 7}
	benchExactJudge(b, cfg, packet.Bernoulli{Load: 2.0}, 2101, 120, offline.ExactUnitCIOQ)
}

// E2b's row, solved once per beta: PG's judge at speedup 2 with a unit
// output buffer, 4 slots of weighted hotspot traffic.
func BenchmarkExactWeightedE2(b *testing.B) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 1, CrossBuf: 1, Speedup: 2, Slots: 4}
	gen := packet.Hotspot{Load: 1.2, HotFrac: 0.8, Values: packet.GeometricValues{P: 0.35, Hi: 64}}
	benchExactJudge(b, cfg, gen, 8, 60, offline.ExactWeightedCIOQ)
}

func BenchmarkOfflineUpperBound(b *testing.B) {
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 4, OutputBuf: 4,
		CrossBuf: 1, Speedup: 1}
	rng := rand.New(rand.NewSource(4))
	seq := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 50}}.
		Generate(rng, 8, 8, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.OQUpperBound(cfg, seq, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineUpperBoundUnit16 is the combined bound on one unit
// sequence of the fleet's gm16 shape (16x16, 64 slots, Bernoulli load
// 1.2) through a reused solver: the counter form of the relaxed queues.
// It reports ns a packet.
func BenchmarkOfflineUpperBoundUnit16(b *testing.B) {
	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1, Slots: 64}
	seq := packet.Bernoulli{Load: 1.2}.Generate(rand.New(rand.NewSource(4)), 16, 16, 64)
	var s offline.UpperBoundSolver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CombinedUpperBound(cfg, seq, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(seq)), "ns/pkt")
}

func BenchmarkTraceEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	seq := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 100}}.
		Generate(rng, 8, 8, 200)
	tr := &packet.Trace{Inputs: 8, Outputs: 8, Packets: seq}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := packet.ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sparse-trace benchmarks: long-horizon, low-load workloads where most
// slots are idle — the regime the event-driven fast path targets.
// ---------------------------------------------------------------------------

const sparseBenchSlots = 1_000_000

// sparseBenchSeq caches one 10^6-slot bursty trace per geometry: ~0.003
// offered load per input (bursts of ~6 packets every ~2000 slots), so
// the switch sits empty for the overwhelming majority of slots.
var sparseBenchSeqs = map[int]packet.Sequence{}

func sparseBenchSeq(n int) packet.Sequence {
	if seq, ok := sparseBenchSeqs[n]; ok {
		return seq
	}
	rng := rand.New(rand.NewSource(1))
	seq := packet.PoissonBurst{OffMean: 2000, BurstMean: 6}.Generate(rng, n, n, sparseBenchSlots)
	sparseBenchSeqs[n] = seq
	return seq
}

func benchSparseCIOQ(b *testing.B, n int, mk func() switchsim.CIOQPolicy) {
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4,
		Speedup: 1, Slots: sparseBenchSlots,
	}
	seq := sparseBenchSeq(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCIOQ(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sparseBenchSlots), "ns/slot")
}

func benchSparseCrossbar(b *testing.B, n int, mk func() switchsim.CrossbarPolicy) {
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
		Speedup: 1, Slots: sparseBenchSlots,
	}
	seq := sparseBenchSeq(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCrossbar(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sparseBenchSlots), "ns/slot")
}

func BenchmarkSparseCIOQGM16(b *testing.B) {
	benchSparseCIOQ(b, 16, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkSparseCIOQGMRotating16(b *testing.B) {
	benchSparseCIOQ(b, 16, func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} })
}
func BenchmarkSparseCIOQPG16(b *testing.B) {
	benchSparseCIOQ(b, 16, func() switchsim.CIOQPolicy { return &core.PG{} })
}
func BenchmarkSparseCIOQRoundRobin16(b *testing.B) {
	benchSparseCIOQ(b, 16, func() switchsim.CIOQPolicy { return &core.RoundRobin{} })
}
func BenchmarkSparseCrossbarCGU16(b *testing.B) {
	benchSparseCrossbar(b, 16, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkSparseCrossbarCPG16(b *testing.B) {
	benchSparseCrossbar(b, 16, func() switchsim.CrossbarPolicy { return &core.CPG{} })
}

// ---------------------------------------------------------------------------
// Quiescent/adversarial-trace benchmarks: converging bursts at speedup 2
// park deep backlogs in the output queues, so most non-idle slots are
// backlogged-but-quiescent — the regime the quiescent drain jump targets.
// ---------------------------------------------------------------------------

const quiescentBenchSlots = 1_000_000

// quiescentBenchSeq caches one 10^6-slot converging-burst trace per
// geometry: every ~2000 slots all n inputs send an 8-packet line-rate
// train into one hot output. At speedup 2 each event leaves a ~64-slot
// drain-only backlog in the hot output queue before the switch empties.
var quiescentBenchSeqs = map[int]packet.Sequence{}

func quiescentBenchSeq(n int) packet.Sequence {
	if seq, ok := quiescentBenchSeqs[n]; ok {
		return seq
	}
	rng := rand.New(rand.NewSource(2))
	seq := packet.BurstyBlocking{OffMean: 2000, Burst: 8, Values: packet.UniformValues{Hi: 20}}.
		Generate(rng, n, n, quiescentBenchSlots)
	quiescentBenchSeqs[n] = seq
	return seq
}

// adversarialBenchSeq caches a classical adversarial construction at
// benchmark scale: HotspotBursts slams every input's burst into output 0
// once per period, then leaves the switch to drain — the burst/drain/idle
// shape of the paper's lower-bound families.
var adversarialBenchSeqs = map[int]packet.Sequence{}

func adversarialBenchSeq(n int) packet.Sequence {
	if seq, ok := adversarialBenchSeqs[n]; ok {
		return seq
	}
	const period = 2048
	seq := adversary.HotspotBursts(n, 6, period, quiescentBenchSlots/period, packet.UniformValues{Hi: 20})
	adversarialBenchSeqs[n] = seq
	return seq
}

// quiescentBenchCfg is the CIOQ geometry for the drain-heavy traces:
// speedup 2 converts input backlog into output backlog twice as fast as
// it drains, and the deep output buffer holds it.
func quiescentBenchCfg(n int) switchsim.Config {
	return switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 8, OutputBuf: 128, CrossBuf: 2,
		Speedup: 2, Slots: quiescentBenchSlots,
	}
}

func benchQuiescentCIOQ(b *testing.B, seq packet.Sequence, n int, mk func() switchsim.CIOQPolicy) {
	cfg := quiescentBenchCfg(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCIOQ(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*quiescentBenchSlots), "ns/slot")
}

func benchQuiescentCrossbar(b *testing.B, seq packet.Sequence, n int, mk func() switchsim.CrossbarPolicy) {
	cfg := quiescentBenchCfg(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCrossbar(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*quiescentBenchSlots), "ns/slot")
}

func BenchmarkQuiescentCIOQGM16(b *testing.B) {
	benchQuiescentCIOQ(b, quiescentBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkQuiescentCIOQGMRotating16(b *testing.B) {
	benchQuiescentCIOQ(b, quiescentBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.GM{Order: core.Rotating} })
}
func BenchmarkQuiescentCIOQPG16(b *testing.B) {
	benchQuiescentCIOQ(b, quiescentBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.PG{} })
}
func BenchmarkQuiescentCIOQRoundRobin16(b *testing.B) {
	benchQuiescentCIOQ(b, quiescentBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.RoundRobin{} })
}
func BenchmarkQuiescentCrossbarCGU16(b *testing.B) {
	benchQuiescentCrossbar(b, quiescentBenchSeq(16), 16, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkQuiescentCrossbarCPG16(b *testing.B) {
	benchQuiescentCrossbar(b, quiescentBenchSeq(16), 16, func() switchsim.CrossbarPolicy { return &core.CPG{} })
}

// BenchmarkCrossDrain* quantify dense crosspoint-drain time: CrossDrain's
// conflict-free all-to-all rotations stack two packets on every (input,
// output) crosspoint, the input side empties within a couple of cycles,
// and the remainder of every event window is spent draining the full
// n x n crosspoint matrix at one packet per output per cycle — the
// crossbar engines' per-output crosspoint-scan cost in isolation.
func benchCrossDrainCrossbar(b *testing.B, n int, mk func() switchsim.CrossbarPolicy) {
	const slots = 100_000
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
		Speedup: 1, Slots: slots,
	}
	rng := rand.New(rand.NewSource(4))
	seq := packet.CrossDrain{OffMean: 200, Depth: 2, Values: packet.UniformValues{Hi: 20}}.
		Generate(rng, n, n, slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.RunCrossbar(cfg, mk(), seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}

func BenchmarkCrossDrainCrossbarCGU16(b *testing.B) {
	benchCrossDrainCrossbar(b, 16, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkCrossDrainCrossbarCPG16(b *testing.B) {
	benchCrossDrainCrossbar(b, 16, func() switchsim.CrossbarPolicy { return &core.CPG{} })
}

func BenchmarkAdversarialCIOQGM16(b *testing.B) {
	benchQuiescentCIOQ(b, adversarialBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkAdversarialCIOQPG16(b *testing.B) {
	benchQuiescentCIOQ(b, adversarialBenchSeq(16), 16, func() switchsim.CIOQPolicy { return &core.PG{} })
}

// ---------------------------------------------------------------------------
// Fleet benchmarks: Monte-Carlo batches of B independent seeded instances
// of one small switch on the columnar batched engine (internal/fleet), the
// ratio-harness regime. ns/slot is aggregate: elapsed / (B × slots).
// ---------------------------------------------------------------------------

func fleetBenchSeqs(batch, n, slots int) []packet.Sequence {
	seqs := make([]packet.Sequence, batch)
	for k := range seqs {
		rng := rand.New(rand.NewSource(int64(k + 1)))
		seqs[k] = packet.Bernoulli{Load: 1.5}.Generate(rng, n, n, slots)
	}
	return seqs
}

// fleetBenchSlots is the per-instance horizon: short seeded runs are the
// Monte-Carlo regime the fleet engine exists for (ratio estimations run
// 16-80-slot instances).
const fleetBenchSlots = 16

func benchFleetCIOQ(b *testing.B, batch int, mk func() switchsim.CIOQPolicy) {
	const n, slots = 16, fleetBenchSlots
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2,
		Speedup: 2, Slots: slots,
	}
	seqs := fleetBenchSeqs(batch, n, slots)
	b.ReportAllocs()
	// The fleet's storage amortizes across batches (the ratio harness
	// shape): construct once, Reset per batch.
	fl, err := fleet.NewCIOQFleet(cfg, mk, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.Reset(seqs); err != nil {
			b.Fatal(err)
		}
		for fl.Step() {
		}
		if _, err := fl.Results(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*slots), "ns/slot")
}

func benchFleetCrossbar(b *testing.B, batch int, mk func() switchsim.CrossbarPolicy) {
	const n, slots = 16, fleetBenchSlots
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2, CrossBuf: 1,
		Speedup: 2, Slots: slots,
	}
	seqs := fleetBenchSeqs(batch, n, slots)
	b.ReportAllocs()
	fl, err := fleet.NewCrossbarFleet(cfg, mk, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.Reset(seqs); err != nil {
			b.Fatal(err)
		}
		for fl.Step() {
		}
		if _, err := fl.Results(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*slots), "ns/slot")
}

func BenchmarkFleetCIOQGM16B16(b *testing.B) {
	benchFleetCIOQ(b, 16, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkFleetCIOQGM16B64(b *testing.B) {
	benchFleetCIOQ(b, 64, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkFleetCIOQGM16B256(b *testing.B) {
	benchFleetCIOQ(b, 256, func() switchsim.CIOQPolicy { return &core.GM{} })
}
func BenchmarkFleetCrossbarCGU16B16(b *testing.B) {
	benchFleetCrossbar(b, 16, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkFleetCrossbarCGU16B64(b *testing.B) {
	benchFleetCrossbar(b, 64, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkFleetCrossbarCGU16B256(b *testing.B) {
	benchFleetCrossbar(b, 256, func() switchsim.CrossbarPolicy { return &core.CGU{} })
}

// ---------------------------------------------------------------------------
// Weighted and wide fleet benchmarks: the weighted kernels (PG/CPG/KRMWM,
// ByValue rings, preemptive transfers) at n=64, and PG at n=256 on the
// CIOQ engine's multi-word rows (occupancy rows spanning four words,
// batched counting-sort matching). Run KRMWM with -benchtime 1x: its Hungarian
// matching is cubic in ports.
// ---------------------------------------------------------------------------

func fleetWeightedBenchSeqs(batch, n, slots int) []packet.Sequence {
	seqs := make([]packet.Sequence, batch)
	for k := range seqs {
		rng := rand.New(rand.NewSource(int64(k + 1)))
		seqs[k] = packet.Bernoulli{Load: 1.5, Values: packet.UniformValues{Hi: 100}}.
			Generate(rng, n, n, slots)
	}
	return seqs
}

func benchFleetWeightedCIOQ(b *testing.B, n, batch int, mk func() switchsim.CIOQPolicy) {
	const slots = fleetBenchSlots
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2,
		Speedup: 2, Slots: slots,
	}
	seqs := fleetWeightedBenchSeqs(batch, n, slots)
	b.ReportAllocs()
	// The runner reuses one fleet across iterations; at n > 64 its rows
	// span several words.
	r := fleet.NewCIOQRunner(mk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg, seqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*slots), "ns/slot")
}

func benchFleetWeightedCrossbar(b *testing.B, n, batch int, mk func() switchsim.CrossbarPolicy) {
	const slots = fleetBenchSlots
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 2, OutputBuf: 2, CrossBuf: 1,
		Speedup: 2, Slots: slots,
	}
	seqs := fleetWeightedBenchSeqs(batch, n, slots)
	b.ReportAllocs()
	r := fleet.NewCrossbarRunner(mk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg, seqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*slots), "ns/slot")
}

func BenchmarkFleetWeightedPG64B64(b *testing.B) {
	benchFleetWeightedCIOQ(b, 64, 64, func() switchsim.CIOQPolicy { return &core.PG{} })
}
func BenchmarkFleetWeightedKRMWM64B16(b *testing.B) {
	benchFleetWeightedCIOQ(b, 64, 16, func() switchsim.CIOQPolicy { return &core.KRMWM{} })
}
func BenchmarkFleetWeightedCPG64B64(b *testing.B) {
	benchFleetWeightedCrossbar(b, 64, 64, func() switchsim.CrossbarPolicy { return &core.CPG{} })
}
func BenchmarkFleetWidePG256B16(b *testing.B) {
	benchFleetWeightedCIOQ(b, 256, 16, func() switchsim.CIOQPolicy { return &core.PG{} })
}

// BenchmarkFleetRatioGM16B256 times the wired path end to end: a RunFleet
// seeded ratio estimation, upper bound judged (the exact DP would
// dominate).
func BenchmarkFleetRatioGM16B256(b *testing.B) {
	cfg := switchsim.Config{
		Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2,
		Speedup: 1, Slots: 64,
	}
	gen := packet.Bernoulli{Load: 1.2}
	factory := func() switchsim.CIOQPolicy { return &core.GM{} }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := ratio.RunFleet(context.Background(), cfg, ratio.CIOQFleetAlg(factory), ratio.UpperBoundCIOQ, gen, 1, 256, 1, 256)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Judge benchmarks: the offline upper-bound solves that dominate
// exact-judged Monte-Carlo estimation.
// ---------------------------------------------------------------------------

func benchJudgeUB(b *testing.B, cfg switchsim.Config, seq packet.Sequence, crossbar bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.CombinedUpperBound(cfg, seq, crossbar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJudgeSparseUB8 judges one 10^6-slot sparse trace (n=8,
// PoissonBurst, ~16 packets per input): the sweep's cost follows the
// packets, not the horizon.
func BenchmarkJudgeSparseUB8(b *testing.B) {
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 4, OutputBuf: 4,
		Speedup: 1, Slots: sparseBenchSlots}
	rng := rand.New(rand.NewSource(21))
	seq := packet.PoissonBurst{OffMean: 250_000, BurstMean: 4,
		Values: packet.UniformValues{Hi: 40}}.Generate(rng, 8, 8, sparseBenchSlots)
	benchJudgeUB(b, cfg, seq, false)
}

// BenchmarkJudgeQuiescentUB8 is the converging-burst (BurstyBlocking)
// shape on the same 10^6-slot horizon, judged as a crossbar relaxation.
func BenchmarkJudgeQuiescentUB8(b *testing.B) {
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 4, OutputBuf: 8,
		CrossBuf: 2, Speedup: 2, Slots: sparseBenchSlots}
	rng := rand.New(rand.NewSource(22))
	seq := packet.BurstyBlocking{OffMean: 200_000, Burst: 4, Fanin: 4}.
		Generate(rng, 8, 8, sparseBenchSlots)
	benchJudgeUB(b, cfg, seq, true)
}

// BenchmarkJudgeDenseUB8 judges a dense weighted 2000-slot trace: every
// slot has arrivals, so the cost is the per-packet heap work, not the
// skipping of empty stretches.
func BenchmarkJudgeDenseUB8(b *testing.B) {
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 4, OutputBuf: 4,
		Speedup: 1, Slots: 2000}
	rng := rand.New(rand.NewSource(23))
	seq := packet.Bernoulli{Load: 1.0, Values: packet.UniformValues{Hi: 50}}.
		Generate(rng, 8, 8, 2000)
	benchJudgeUB(b, cfg, seq, false)
}

// BenchmarkJudgeMonteCarloUB16 is the FleetRatio judging shape in
// isolation: 256 seeded 64-slot 16x16 sequences through one reused judge,
// the judging a RunFleet worker's two lanes split between them.
func BenchmarkJudgeMonteCarloUB16(b *testing.B) {
	cfg := switchsim.Config{Inputs: 16, Outputs: 16, InputBuf: 2, OutputBuf: 2,
		Speedup: 1, Slots: 64}
	seqs := make([]packet.Sequence, 256)
	for k := range seqs {
		rng := rand.New(rand.NewSource(int64(k + 1)))
		seqs[k] = packet.Bernoulli{Load: 1.2}.Generate(rng, 16, 16, 64)
	}
	j := ratio.UpperBoundCIOQ()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seq := range seqs {
			if _, err := j.Judge(cfg, seq); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAdversaryAdaptiveGM64 times the fully adaptive anti-greedy
// loop (stepper-driven, observing the policy's queues every slot): its
// per-phase drain and catch-up stretch now rides the quiescent StepIdle
// jump.
func BenchmarkAdversaryAdaptiveGM64(b *testing.B) {
	cfg := adversary.IQLowerBoundCfg(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := adversary.AdaptiveAntiGreedy(cfg, &core.GM{}, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversarySearchGM times the local-search fuzzer hunting
// high-ratio instances against GM on long sparse horizons, judged by the
// exact unit-value optimum — the E8 workload at search scale. The policy
// side of every candidate evaluation rides the fast path.
func BenchmarkAdversarySearchGM(b *testing.B) {
	cfg := switchsim.Config{
		Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 4, CrossBuf: 1,
		Speedup: 2,
	}
	eval := func(seq packet.Sequence) (float64, bool) {
		r, ok, err := ratio.Single(cfg,
			ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
			ratio.ExactUnitCIOQ(), seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adversary.Search(adversary.SearchOptions{
			Inputs: 2, Outputs: 2, MaxSlots: 600, MaxPackets: 24,
			MaxValue: 1, Iterations: 120, Seed: int64(i + 1), Restarts: 1,
		}, eval)
	}
}

// ---------------------------------------------------------------------------
// Streamed-arrival benchmarks: a 10^8-slot lazily generated sparse workload
// per iteration through RunCIOQStream/RunCrossbarStream — a horizon whose
// materialized form is hundreds of megabytes of Packet structs, run in
// O(window) memory (run with -benchtime 1x).
// ---------------------------------------------------------------------------

const streamBenchSlots = 100_000_000

// streamBenchDiurnal is a day/night workload whose silent troughs span
// tens of thousands of slots: the idle jumps are answered from the
// stream's one-packet look-ahead.
func streamBenchDiurnal() packet.Generator {
	return packet.Diurnal{Load: 0.005, Period: 50_000, Amplitude: 4,
		Values: packet.UniformValues{Hi: 20}}
}

// streamBenchFlowMix opens sparse flows whose packet trains arrive in
// line-rate runs separated by long inter-flow gaps — the flow-level shape
// with an open-flow state of a few bytes per input.
func streamBenchFlowMix() packet.Generator {
	return packet.FlowMix{FlowRate: 0.0002, Values: packet.UniformValues{Hi: 20}}
}

func benchStreamCIOQ(b *testing.B, gen packet.Generator, mk func() switchsim.CIOQPolicy, slots int) {
	const n = 4
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 8,
		Speedup: 2, Slots: slots,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := packet.StreamTraffic(gen, rand.New(rand.NewSource(7)), n, n, slots)
		if _, err := switchsim.RunCIOQStream(cfg, mk(), src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
}

func benchStreamCrossbar(b *testing.B, gen packet.Generator, mk func() switchsim.CrossbarPolicy) {
	const n = 4
	cfg := switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 8, CrossBuf: 2,
		Speedup: 2, Slots: streamBenchSlots,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := packet.StreamTraffic(gen, rand.New(rand.NewSource(7)), n, n, streamBenchSlots)
		if _, err := switchsim.RunCrossbarStream(cfg, mk(), src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/streamBenchSlots, "ns/slot")
}

func BenchmarkStreamCIOQGMDiurnal4(b *testing.B) {
	benchStreamCIOQ(b, streamBenchDiurnal(), func() switchsim.CIOQPolicy { return &core.GM{} }, streamBenchSlots)
}
func BenchmarkStreamCIOQPGDiurnal4(b *testing.B) {
	benchStreamCIOQ(b, streamBenchDiurnal(), func() switchsim.CIOQPolicy { return &core.PG{} }, streamBenchSlots)
}
func BenchmarkStreamCIOQGMFlowMix4(b *testing.B) {
	benchStreamCIOQ(b, streamBenchFlowMix(), func() switchsim.CIOQPolicy { return &core.GM{} }, streamBenchSlots)
}

// BenchmarkStreamFlowMixSparse is the kernel of the suite's sparse_stream
// flowmix_cioq_gm cell at a horizon short enough to iterate: the event-driven
// arrival synthesis (GenStream jumping to the source's next busy slot) plus
// the engine's idle jumps, A/B-able in-process without the suite.
func BenchmarkStreamFlowMixSparse(b *testing.B) {
	benchStreamCIOQ(b, streamBenchFlowMix(), func() switchsim.CIOQPolicy { return &core.GM{} }, 1_000_000)
}
func BenchmarkStreamCrossbarCGUDiurnal4(b *testing.B) {
	benchStreamCrossbar(b, streamBenchDiurnal(), func() switchsim.CrossbarPolicy { return &core.CGU{} })
}
func BenchmarkStreamCrossbarCPGFlowMix4(b *testing.B) {
	benchStreamCrossbar(b, streamBenchFlowMix(), func() switchsim.CrossbarPolicy { return &core.CPG{} })
}

// ---------------------------------------------------------------------------
// Paired fleets vs independent sampling. Both arms drive the same
// policy-vs-policy comparison (GM vs PG on a 4x4 CIOQ switch) to the same
// CI half-width target on the mean ratio difference, and report how many
// switch-slots of simulation they spent getting there. The paired arm
// shares workloads and judge calls across policies (common random
// numbers); the independent arm gives each policy its own seed stream and
// pays the full between-workload variance. Run with -benchtime 1x.
// ---------------------------------------------------------------------------

const (
	pairedBenchTarget = 0.008 // CI half-width target on mean(PG/OPT) - mean(GM/OPT)
	pairedBenchConf   = 0.95
	pairedBenchBudget = 8192 // seeds per arm before giving up
	pairedBenchChunk  = 16   // stopping-rule granularity (seeds)
	pairedBenchBatch  = 32   // fleet sub-batch
)

func pairedBenchSetup() (switchsim.Config, packet.Generator, []ratio.PairedPolicy) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, Speedup: 1, Slots: 32}
	gen := packet.Bernoulli{Load: 1.5}
	pols := []ratio.PairedPolicy{
		{Name: "gm", Alg: ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })},
		{Name: "pg", Alg: ratio.CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.PG{} })},
	}
	return cfg, gen, pols
}

// BenchmarkPairedDiffCIOQ measures the paired (common-random-numbers)
// arm: RunPaired stops once the paired-difference CI clears the target.
func BenchmarkPairedDiffCIOQ(b *testing.B) {
	cfg, gen, pols := pairedBenchSetup()
	tgt := stats.Target{AbsWidth: pairedBenchTarget, Confidence: pairedBenchConf}
	b.ReportAllocs()
	var slots int64
	var seeds int
	for i := 0; i < b.N; i++ {
		pe, err := ratio.RunPaired(context.Background(), cfg, pols, ratio.UpperBoundCIOQ, gen, 1,
			ratio.PairedOptions{Batch: pairedBenchBatch, Chunk: pairedBenchChunk, Target: tgt, MaxRuns: pairedBenchBudget})
		if err != nil {
			b.Fatal(err)
		}
		if !pe.TargetMet {
			b.Fatalf("paired arm missed the target within %d seeds (hw=%v)", pairedBenchBudget, pe.Diffs[0].HalfWidth)
		}
		slots, seeds = pe.SlotsSimulated, pe.Seeds
	}
	b.ReportMetric(float64(slots), "slots-to-target")
	b.ReportMetric(float64(seeds), "seeds-to-target")
}

// BenchmarkPairedDiffCIOQIndependent measures the control arm: each
// policy samples its own disjoint seed stream, and the run stops when the
// Welch CI on the difference of the two independent means clears the
// same target. Slots are charged with the same WorkloadSlots accounting
// PairedEstimate.SlotsSimulated uses.
func BenchmarkPairedDiffCIOQIndependent(b *testing.B) {
	cfg, gen, pols := pairedBenchSetup()
	b.ReportAllocs()
	var slots int64
	var seeds int
	for i := 0; i < b.N; i++ {
		var err error
		slots, seeds, err = independentDiffToTarget(cfg, gen, pols)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(slots), "slots-to-target")
	b.ReportMetric(float64(seeds), "seeds-to-target")
}

// independentDiffToTarget advances two independent fleet-backed seed
// streams (disjoint base seeds, one per policy) in lockstep chunks until
// the Welch two-sample CI half-width on the difference of means reaches
// pairedBenchTarget, and returns (switch-slots spent, seeds issued).
func independentDiffToTarget(cfg switchsim.Config, gen packet.Generator, pols []ratio.PairedPolicy) (int64, int, error) {
	const seedA, seedB = 1, 1 << 20 // disjoint streams
	ctx := context.Background()
	evalA := ratio.FleetChunks(cfg, pols[0].Alg, ratio.UpperBoundCIOQ, gen, seedA, pairedBenchBatch)
	evalB := ratio.FleetChunks(cfg, pols[1].Alg, ratio.UpperBoundCIOQ, gen, seedB, pairedBenchBatch)
	var accA, accB stats.Estimator
	fold := func(acc *stats.Estimator, outs []ratio.SeedOutcome) error {
		for _, o := range outs {
			if o.Err != nil {
				return o.Err
			}
			if !o.Skipped {
				acc.Add(o.Ratio)
			}
		}
		return nil
	}
	n := 0
	for n < pairedBenchBudget {
		k1 := n + pairedBenchChunk
		if k1 > pairedBenchBudget {
			k1 = pairedBenchBudget
		}
		outsA, err := evalA(ctx, n, k1)
		if err != nil {
			return 0, 0, err
		}
		outsB, err := evalB(ctx, n, k1)
		if err != nil {
			return 0, 0, err
		}
		if err := fold(&accA, outsA); err != nil {
			return 0, 0, err
		}
		if err := fold(&accB, outsB); err != nil {
			return 0, 0, err
		}
		n = k1
		if welchDiffHalfWidth(&accA, &accB) <= pairedBenchTarget {
			break
		}
	}
	slots := ratio.WorkloadSlots(cfg, gen, seedA, n) + ratio.WorkloadSlots(cfg, gen, seedB, n)
	return slots, 2 * n, nil
}

// welchDiffHalfWidth is the CI half-width on mean(B) - mean(A) for two
// independent samples, using the conservative min(nA,nB)-1 df. It mirrors
// the paired stopping rule's MinSamples floor (returns +Inf below it).
func welchDiffHalfWidth(a, bAcc *stats.Estimator) float64 {
	nA, nB := a.N(), bAcc.N()
	if nA < 8 || nB < 8 {
		return math.Inf(1)
	}
	df := nA - 1
	if nB < nA {
		df = nB - 1
	}
	se := math.Sqrt(a.Var()/float64(nA) + bAcc.Var()/float64(nB))
	return stats.TCrit(df, pairedBenchConf) * se
}

// ---------------------------------------------------------------------------
// Observability layer benchmarks. The counter benchmarks price the probe
// primitives themselves (enabled and disabled paths); the probed pipeline
// benchmark runs E1 with the full probe set installed and reports the
// obs-derived workload counters — quiescent-jump rate, judge solves —
// alongside ns/op, so committed benchmark baselines record what the
// workload did, not just how long it took.
// ---------------------------------------------------------------------------

func BenchmarkObsCounterAdd(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_ops_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsCounterAddDisabled(b *testing.B) {
	// The probes-uninstalled path: a nil counter must cost one
	// predictable branch and allocate nothing.
	var c *obs.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_seconds", 0.001, 0.01, 0.1, 1, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}

func BenchmarkObsProbedE1(b *testing.B) {
	exp, ok := experiments.ByID("e1")
	if !ok {
		b.Fatal("e1 missing")
	}
	reg := obs.NewRegistry()
	wire.Up(reg)
	defer wire.Down()
	before := reg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(experiments.Options{Quick: true, Seed: int64(i + 1), Probes: reg}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := obs.DiffSnapshot(before, reg.Snapshot())
	n := float64(b.N)
	b.ReportMetric(delta[obs.MetricEngineRuns]/n, "engineruns/op")
	b.ReportMetric(delta[obs.MetricJudgeSolves]/n+delta[obs.MetricJudgeExactSolves]/n, "judgesolves/op")
	b.ReportMetric(delta[obs.MetricEngineJumps]/n, "jumps/op")
	if slots := delta[obs.MetricEngineSlots]; slots > 0 {
		b.ReportMetric(delta[obs.MetricEngineJumpedSlots]/slots, "jumpedfrac")
	}
}
