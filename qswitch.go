// Package qswitch is a library of competitive online packet-scheduling
// algorithms for CIOQ (combined input/output queued) and buffered crossbar
// switches, reproducing:
//
//	Al-Bawani, Englert, Westermann.
//	"Online Packet Scheduling for CIOQ and Buffered Crossbar Switches."
//	SPAA 2016 / Algorithmica 2018.
//
// It bundles:
//
//   - the paper's algorithms — GM (unit-value CIOQ, 3-competitive),
//     PG (weighted CIOQ, 3+2√2 ≈ 5.83-competitive), CGU (unit-value
//     crossbar, 3-competitive) and CPG (weighted crossbar,
//     ≈14.83-competitive) — plus the maximum-matching baselines of prior
//     work and practical baselines (iSLIP-style round-robin, FIFO);
//   - a slot/phase-accurate switch simulator that enforces the model's
//     physical constraints (matching property, buffer capacities,
//     speedup cycles) and is event-driven by default: idle and
//     drain-only stretches are jumped in closed form with bit-identical
//     metrics (Config.Dense opts out);
//   - synthetic traffic generators (uniform, bursty, hotspot, diagonal,
//     permutation, flow-level flowmix; unit, two-valued, Zipf, geometric
//     value models) and trace serialization;
//   - a streaming arrival layer (ArrivalStream, SimulateCIOQStream,
//     SimulateCrossbarStream, OpenTraceStream) that simulates horizons of
//     10⁹ slots and beyond in memory bounded by a fixed arrival window,
//     with metrics bit-identical to a materialized run
//     (Config.StreamMetrics swaps latency quantiles for a constant-space
//     P² sketch);
//   - offline optima: exact solvers for small instances and a
//     polynomial upper bound for arbitrary ones (one forward sweep per
//     relaxed port), enabling empirical competitive-ratio measurement.
//
// # Quick start
//
//	cfg := qswitch.Config{Inputs: 8, Outputs: 8, InputBuf: 4,
//		OutputBuf: 4, Speedup: 1}
//	gen := qswitch.UniformTraffic(0.9)
//	seq := qswitch.GenerateTraffic(gen, cfg, 1000, 42)
//	res, err := qswitch.SimulateCIOQ(cfg, "gm", seq)
//
// See the examples/ directory for complete programs.
package qswitch

import (
	"context"
	"fmt"
	"sort"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// Re-exported model types. These aliases are the stable public names; the
// internal packages they point at are implementation detail.
type (
	// Packet is one fixed-size packet with arrival slot, ports and value.
	Packet = packet.Packet
	// Sequence is an arrival sequence sorted by (arrival, id).
	Sequence = packet.Sequence
	// Trace couples a sequence with its port geometry for (de)serialization.
	Trace = packet.Trace
	// Generator produces synthetic arrival sequences.
	Generator = packet.Generator
	// ValueDist draws packet values for generators.
	ValueDist = packet.ValueDist
	// Config describes switch geometry, buffers, speedup and horizon.
	Config = switchsim.Config
	// Result carries the metrics of one simulation run.
	Result = switchsim.Result
	// CIOQPolicy is the scheduling interface for CIOQ switches.
	CIOQPolicy = switchsim.CIOQPolicy
	// CrossbarPolicy is the scheduling interface for buffered crossbars.
	CrossbarPolicy = switchsim.CrossbarPolicy
	// IdleAdvancer is the opt-in hook that lets the (default) event-driven
	// engine jump idle and quiescent stretches for a custom policy; see
	// switchsim.IdleAdvancer for the contract.
	IdleAdvancer = switchsim.IdleAdvancer
	// RatioEstimate aggregates competitive-ratio measurements.
	RatioEstimate = ratio.Estimate
	// PrecisionTarget is a CI-precision stopping rule for sequential
	// ratio estimation (absolute and/or relative Student-t half-width).
	PrecisionTarget = stats.Target
	// RatioReport describes how a sequential estimation stopped.
	RatioReport = ratio.SeqReport
	// PairedEstimate is the result of a paired (common-random-numbers)
	// policy comparison: per-policy marginals plus per-seed difference CIs.
	PairedEstimate = ratio.PairedEstimate
	// RatioDiff is one paired-difference estimate within a PairedEstimate.
	RatioDiff = ratio.DiffEstimate
	// ArrivalStream is the pull-based form of an arrival sequence; the
	// streaming simulators consume it incrementally, so unbounded
	// workloads run in bounded memory.
	ArrivalStream = packet.ArrivalStream
	// TraceStream reads a binary trace file incrementally as an
	// ArrivalStream; see OpenTraceStream.
	TraceStream = packet.TraceStream
	// MetricsRegistry is the observability layer's named-metric registry;
	// see EnableObservability and internal/obs.
	MetricsRegistry = obs.Registry
)

// EnableObservability creates a metrics registry and installs the
// library's probes into it: engine run/slot/jump counters, fleet
// kernel-vs-fallback counters, offline-judge solve counters and
// sequential-estimation chunk telemetry. Until this is called every probe
// is a nil no-op, so simulations pay nothing for the layer's existence.
//
// The returned stop function uninstalls the probes again. Registry reads
// (Snapshot, WritePrometheus) are safe while simulations run. Probes only
// observe — enabling them never changes any simulation or estimate.
func EnableObservability() (*MetricsRegistry, func()) {
	reg := obs.NewRegistry()
	wire.Up(reg)
	return reg, wire.Down
}

// NewCIOQPolicy constructs a CIOQ policy by name:
//
//	gm            — Greedy Matching (paper, unit values, 3-competitive)
//	gm-rotating   — GM with a rotating edge scan
//	gm-colmajor   — GM with column-major scan
//	gm-longest    — GM preferring longest queues
//	gm-random     — GM with a random scan per cycle (open-problem probe)
//	kr-maxmatch   — maximum-matching baseline (Hopcroft–Karp)
//	pg            — Preemptive Greedy (paper, weighted, 5.83-competitive)
//	kr-maxweight  — maximum-weight-matching baseline (Hungarian, β=2)
//	ar-fifo       — FIFO-queue related-work baseline (Azar–Richter line)
//	naive-fifo    — non-preemptive first-fit baseline
//	roundrobin    — iSLIP-style round-robin matching
func NewCIOQPolicy(name string) (CIOQPolicy, error) {
	switch name {
	case "gm":
		return &core.GM{}, nil
	case "gm-rotating":
		return &core.GM{Order: core.Rotating}, nil
	case "gm-colmajor":
		return &core.GM{Order: core.ColMajor}, nil
	case "gm-longest":
		return &core.GM{Order: core.LongestFirst}, nil
	case "kr-maxmatch":
		return &core.KRMM{}, nil
	case "pg":
		return &core.PG{}, nil
	case "kr-maxweight":
		return &core.KRMWM{}, nil
	case "naive-fifo":
		return &core.NaiveFIFO{}, nil
	case "roundrobin":
		return &core.RoundRobin{}, nil
	case "gm-random":
		return &core.RandomizedGM{}, nil
	case "ar-fifo":
		return &core.ARFIFO{}, nil
	default:
		return nil, fmt.Errorf("qswitch: unknown CIOQ policy %q (have %v)", name, CIOQPolicyNames())
	}
}

// NewPG constructs the Preemptive Greedy policy with an explicit β
// (DefaultBetaPG when 0).
func NewPG(beta float64) CIOQPolicy { return &core.PG{Beta: beta} }

// NewCrossbarPolicy constructs a buffered-crossbar policy by name:
//
//	cgu           — Crossbar Greedy Unit (paper, 3-competitive)
//	cgu-rotating  — CGU with rotating picks
//	cpg           — Crossbar Preemptive Greedy (paper, 14.83-competitive)
//	cpg-equal     — CPG with β=α (Kesselman et al.'s parameterization)
//	crossbar-naive— non-preemptive first-fit baseline
//	kks-fifo      — FIFO-queue related-work baseline (KKS line)
func NewCrossbarPolicy(name string) (CrossbarPolicy, error) {
	switch name {
	case "cgu":
		return &core.CGU{}, nil
	case "cgu-rotating":
		return &core.CGU{RotatePick: true}, nil
	case "cpg":
		return &core.CPG{}, nil
	case "cpg-equal":
		return core.CPGEqualParams(), nil
	case "crossbar-naive":
		return &core.CrossbarNaive{}, nil
	case "kks-fifo":
		return &core.KKSFIFO{}, nil
	default:
		return nil, fmt.Errorf("qswitch: unknown crossbar policy %q (have %v)", name, CrossbarPolicyNames())
	}
}

// NewCPG constructs the Crossbar Preemptive Greedy policy with explicit
// parameters (paper defaults when 0).
func NewCPG(beta, alpha float64) CrossbarPolicy { return &core.CPG{Beta: beta, Alpha: alpha} }

// CIOQPolicyNames lists the names accepted by NewCIOQPolicy.
func CIOQPolicyNames() []string {
	names := []string{"gm", "gm-rotating", "gm-colmajor", "gm-longest",
		"gm-random", "kr-maxmatch", "pg", "kr-maxweight", "ar-fifo",
		"naive-fifo", "roundrobin"}
	sort.Strings(names)
	return names
}

// CrossbarPolicyNames lists the names accepted by NewCrossbarPolicy.
func CrossbarPolicyNames() []string {
	names := []string{"cgu", "cgu-rotating", "cpg", "cpg-equal", "crossbar-naive", "kks-fifo"}
	sort.Strings(names)
	return names
}

// SimulateCIOQ runs the named (or given) policy on a CIOQ switch.
// policy may be a string accepted by NewCIOQPolicy or a CIOQPolicy value.
func SimulateCIOQ(cfg Config, policy interface{}, seq Sequence) (*Result, error) {
	pol, err := resolveCIOQ(policy)
	if err != nil {
		return nil, err
	}
	return switchsim.RunCIOQ(cfg, pol, seq)
}

// SimulateCrossbar runs the named (or given) policy on a buffered
// crossbar switch.
func SimulateCrossbar(cfg Config, policy interface{}, seq Sequence) (*Result, error) {
	pol, err := resolveCrossbar(policy)
	if err != nil {
		return nil, err
	}
	return switchsim.RunCrossbar(cfg, pol, seq)
}

// SimulateOQ runs the ideal output-queued reference switch.
func SimulateOQ(cfg Config, seq Sequence) (*Result, error) {
	return switchsim.RunOQ(cfg, seq)
}

// SimulateCIOQStream runs the named (or given) policy on a CIOQ switch,
// consuming arrivals from a stream instead of a materialized sequence.
// Metrics are bit-identical to SimulateCIOQ on the same arrivals; memory
// is bounded by the stream's window rather than the trace length (set
// Config.StreamMetrics to keep latency recording bounded too).
func SimulateCIOQStream(cfg Config, policy interface{}, src ArrivalStream) (*Result, error) {
	pol, err := resolveCIOQ(policy)
	if err != nil {
		return nil, err
	}
	return switchsim.RunCIOQStream(cfg, pol, src)
}

// SimulateCrossbarStream is SimulateCIOQStream for buffered crossbars.
func SimulateCrossbarStream(cfg Config, policy interface{}, src ArrivalStream) (*Result, error) {
	pol, err := resolveCrossbar(policy)
	if err != nil {
		return nil, err
	}
	return switchsim.RunCrossbarStream(cfg, pol, src)
}

// StreamTraffic returns the generator's workload as an ArrivalStream,
// bit-identical to GenerateTraffic with the same arguments. Slot-major
// generators (the Bernoulli family, Diurnal, FlowMix) are synthesized
// lazily in O(window) memory; the per-input renewal generators are
// materialized once and replayed.
func StreamTraffic(gen Generator, cfg Config, slots int, seed int64) ArrivalStream {
	return packet.StreamTraffic(gen, rng.New(seed), cfg.Inputs, cfg.Outputs, slots)
}

// OpenTraceStream opens a binary trace file for incremental replay
// through the streaming simulators; the caller should Close it when done.
// Record fields, ordering invariants and the CRC64 trailer are verified
// as the stream is consumed.
func OpenTraceStream(path string) (*TraceStream, error) {
	return packet.OpenTraceStream(path)
}

// GenerateTraffic draws a reproducible sequence from a generator for the
// given geometry: `slots` arrival slots seeded by `seed`.
func GenerateTraffic(gen Generator, cfg Config, slots int, seed int64) Sequence {
	return gen.Generate(rng.New(seed), cfg.Inputs, cfg.Outputs, slots)
}

// UniformTraffic is Bernoulli i.i.d. unit-value traffic at the given
// per-input load.
func UniformTraffic(load float64) Generator { return packet.Bernoulli{Load: load} }

// WeightedTraffic is Bernoulli traffic with values drawn from dist.
func WeightedTraffic(load float64, dist ValueDist) Generator {
	return packet.Bernoulli{Load: load, Values: dist}
}

// BurstyTraffic is ON/OFF Markov-modulated traffic with per-burst
// destinations; the non-Poisson workload of the paper's motivation.
func BurstyTraffic(onLoad, pOnOff, pOffOn float64, dist ValueDist) Generator {
	return packet.Bursty{OnLoad: onLoad, POnOff: pOnOff, POffOn: pOffOn, Values: dist}
}

// HotspotTraffic sends fraction hotFrac of all packets to output hotOut.
func HotspotTraffic(load float64, hotOut int, hotFrac float64, dist ValueDist) Generator {
	return packet.Hotspot{Load: load, HotOut: hotOut, HotFrac: hotFrac, Values: dist}
}

// PoissonBurstTraffic is sparse on/off traffic: line-rate bursts of
// Poisson-distributed size (mean burstMean) separated by geometric idle
// gaps (mean offMean slots). The default event-driven engine simulates
// its long silences in O(1) per gap.
func PoissonBurstTraffic(offMean, burstMean float64, dist ValueDist) Generator {
	return packet.PoissonBurst{OffMean: offMean, BurstMean: burstMean, Values: dist}
}

// DiurnalTraffic is Bernoulli traffic modulated by a sinusoidal
// day/night cycle; amplitude >= 1 silences the troughs entirely.
func DiurnalTraffic(load float64, period int, amplitude float64, dist ValueDist) Generator {
	return packet.Diurnal{Load: load, Period: period, Amplitude: amplitude, Values: dist}
}

// HeavyTailTraffic draws per-input Pareto(alpha, minGap) interarrival
// gaps: self-similar traffic with occasional very long silences.
func HeavyTailTraffic(alpha, minGap float64, dist ValueDist) Generator {
	return packet.HeavyTail{Alpha: alpha, MinGap: minGap, Values: dist}
}

// FlowMixTraffic is flow-level traffic: each input carries a mix of
// short "rat" and long "elephant" flows opening at a stage-varying rate,
// every open flow emitting one packet per slot toward its destination.
// The load argument is the approximate mean per-input packet load under
// the default mix; see packet.FlowMix for the full parameter surface.
// FlowMix is slot-major, so it streams in memory proportional to the
// open-flow state — the flagship workload for the streaming simulators.
func FlowMixTraffic(load float64, dist ValueDist) Generator {
	return packet.FlowMixForLoad(load, dist)
}

// BurstyBlockingTraffic converges line-rate bursts (burst packets from
// each of fanin inputs; fanin <= 0 means all) onto a single hot output,
// separated by geometric quiet gaps of mean offMean slots. At speedup >= 2
// it produces long backlogged-but-quiescent drain stretches — the shape
// the default event-driven engine advances in closed form.
func BurstyBlockingTraffic(offMean float64, burst, fanin int, dist ValueDist) Generator {
	return packet.BurstyBlocking{OffMean: offMean, Burst: burst, Fanin: fanin, Values: dist}
}

// OfflineUpperBound computes a proven upper bound on the benefit of ANY
// schedule (online or offline) for the instance: the optimum of the
// relaxation to one bounded-buffer queue per output, solved exactly by a
// forward sweep over the arrivals. Set crossbar=true to include
// crosspoint buffer capacity.
func OfflineUpperBound(cfg Config, seq Sequence, crossbar bool) (int64, error) {
	return offline.OQUpperBound(cfg, seq, crossbar)
}

// ExactOptimum computes the exact offline optimum for small instances
// (see internal/offline for the tractability guards); crossbar selects the
// buffered-crossbar model. It returns offline.ErrTooLarge-wrapped errors
// when the instance is out of reach.
func ExactOptimum(cfg Config, seq Sequence, crossbar bool) (int64, error) {
	if seq.IsUnit() {
		if crossbar {
			return offline.ExactUnitCrossbar(cfg, seq)
		}
		return offline.ExactUnitCIOQ(cfg, seq)
	}
	if crossbar {
		return offline.ExactWeightedCrossbar(cfg, seq)
	}
	return offline.ExactWeightedCIOQ(cfg, seq)
}

// MeasureRatioCIOQ estimates the empirical competitive ratio of a named
// CIOQ policy over `runs` seeded workloads, judged by the exact offline
// optimum when tractable (exact=true) or by the combined output- and
// input-side upper bound otherwise.
func MeasureRatioCIOQ(cfg Config, policyName string, gen Generator, exact bool, seed int64, runs int) (RatioEstimate, error) {
	pol, err := byName(policyName, NewCIOQPolicy)
	if err != nil {
		return RatioEstimate{}, err
	}
	return ratio.Run(context.Background(), cfg, ratio.CIOQAlg(pol), ratioJudge(exact, false), gen, seed, runs)
}

// byName validates a policy name once and returns a constructor for it,
// so every evaluation gets a fresh policy instance.
func byName[P any](name string, newPolicy func(string) (P, error)) (func() P, error) {
	if _, err := newPolicy(name); err != nil {
		return nil, err
	}
	return func() P {
		p, _ := newPolicy(name) // the name resolved above, and resolving is pure
		return p
	}, nil
}

// ratioJudge picks the ratio judge: the exact optimum (ExactOptimum) or
// the combined upper bound of the model crossbar selects.
func ratioJudge(exact, crossbar bool) ratio.JudgeFactory {
	switch {
	case exact:
		return func() ratio.Judge {
			return ratio.JudgeFunc(func(cfg Config, seq Sequence) (int64, error) {
				return ExactOptimum(cfg, seq, crossbar)
			})
		}
	case crossbar:
		return ratio.UpperBoundCrossbar
	}
	return ratio.UpperBoundCIOQ
}

// MeasureRatioCIOQParallel is MeasureRatioCIOQ with the per-seed
// measurements spread over a worker pool (workers <= 0 selects
// GOMAXPROCS). Results are bit-identical to the sequential version.
func MeasureRatioCIOQParallel(cfg Config, policyName string, gen Generator, exact bool, seed int64, runs, workers int) (RatioEstimate, error) {
	pol, err := byName(policyName, NewCIOQPolicy)
	if err != nil {
		return RatioEstimate{}, err
	}
	return ratio.RunParallel(context.Background(), cfg, ratio.CIOQAlg(pol), ratioJudge(exact, false), gen, seed, runs, workers)
}

// MeasureRatioCIOQSequential is MeasureRatioCIOQ with sequential
// stopping: seeds are issued in chunks of `chunk` (<= 0 selects the
// default) until the Student-t CI half-width on the mean ratio clears the
// target or maxRuns seeds have been spent. With a disabled (zero) target
// it is byte-identical to MeasureRatioCIOQ over maxRuns seeds; with a
// target the stopped seed count depends only on (seed, chunk).
func MeasureRatioCIOQSequential(cfg Config, policyName string, gen Generator, exact bool,
	seed int64, target PrecisionTarget, chunk, maxRuns int) (RatioEstimate, RatioReport, error) {
	pol, err := byName(policyName, NewCIOQPolicy)
	if err != nil {
		return RatioEstimate{}, RatioReport{}, err
	}
	return ratio.RunSequential(context.Background(),
		ratio.ScalarChunks(cfg, ratio.CIOQAlg(pol), ratioJudge(exact, false), gen, seed),
		ratio.SequentialOptions{Target: target, Chunk: chunk, MaxRuns: maxRuns})
}

// CompareRatioCIOQPaired compares named CIOQ policies with common random
// numbers: every seed's workload is generated once, judged once, and fed
// to all policies through the fleet engine, and the per-seed ratio
// differences against policyNames[0] get their own Student-t CIs. The
// marginal estimates are byte-identical to MeasureRatioCIOQ per policy on
// the same seeds; the paired differences reach a target half-width with
// far fewer switch-slots than independent sampling (see the root
// BenchmarkPairedDiffCIOQ pair). A
// non-zero target stops early once every difference CI clears it.
func CompareRatioCIOQPaired(cfg Config, policyNames []string, gen Generator, exact bool,
	seed int64, target PrecisionTarget, maxRuns int) (PairedEstimate, error) {
	pols := make([]ratio.PairedPolicy, len(policyNames))
	for i, name := range policyNames {
		pol, err := byName(name, NewCIOQPolicy)
		if err != nil {
			return PairedEstimate{}, err
		}
		pols[i] = ratio.PairedPolicy{Name: name, Alg: ratio.CIOQFleetAlg(pol)}
	}
	return ratio.RunPaired(context.Background(), cfg, pols, ratioJudge(exact, false), gen, seed,
		ratio.PairedOptions{Target: target, MaxRuns: maxRuns})
}

// MeasureRatioCrossbar is the buffered-crossbar analogue of
// MeasureRatioCIOQ.
func MeasureRatioCrossbar(cfg Config, policyName string, gen Generator, exact bool, seed int64, runs int) (RatioEstimate, error) {
	pol, err := byName(policyName, NewCrossbarPolicy)
	if err != nil {
		return RatioEstimate{}, err
	}
	return ratio.Run(context.Background(), cfg, ratio.CrossbarAlg(pol), ratioJudge(exact, true), gen, seed, runs)
}

// DefaultBetaPG returns β = 1+√2, PG's optimal parameter (Theorem 2).
func DefaultBetaPG() float64 { return core.DefaultBetaPG() }

// DefaultBetaCPG returns CPG's optimal β (Theorem 4).
func DefaultBetaCPG() float64 { return core.DefaultBetaCPG() }

// DefaultAlphaCPG returns CPG's optimal α = 2/(β−1)² (Theorem 4).
func DefaultAlphaCPG() float64 { return core.DefaultAlphaCPG() }

func resolveCIOQ(policy interface{}) (CIOQPolicy, error) {
	switch p := policy.(type) {
	case string:
		return NewCIOQPolicy(p)
	case CIOQPolicy:
		return p, nil
	default:
		return nil, fmt.Errorf("qswitch: policy must be a name or CIOQPolicy, got %T", policy)
	}
}

func resolveCrossbar(policy interface{}) (CrossbarPolicy, error) {
	switch p := policy.(type) {
	case string:
		return NewCrossbarPolicy(p)
	case CrossbarPolicy:
		return p, nil
	default:
		return nil, fmt.Errorf("qswitch: policy must be a name or CrossbarPolicy, got %T", policy)
	}
}
