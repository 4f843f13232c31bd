// Package experiments implements the paper-reproduction experiment suite
// E1–E12 defined in DESIGN.md. Each experiment regenerates one table or
// figure's worth of data: competitive-ratio measurements against exact
// offline optima (E1–E4, E8), scheduling-cost comparisons backing the
// paper's efficiency claim (E5, E9, E12), and throughput studies across
// speedup, buffers, traffic and value distributions (E6, E7, E10, E11).
//
// Experiments are pure functions from Options to stats.Tables so the same
// code serves the switchbench CLI, the test suite (quick mode) and the
// root benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks workloads by roughly an order of magnitude so every
	// experiment finishes in well under a second (used by tests and
	// benchmarks). Full mode is the CLI default.
	Quick bool
	// Seed is the base RNG seed; all experiments are deterministic
	// given a seed.
	Seed int64
	// Dense opts every simulation OUT of the event-driven engine fast
	// path (switchsim.Config.Dense); by default experiments run
	// event-driven, which matters for the adversarial workloads (E8, E14)
	// whose burst/drain/idle shape is exactly what the quiescent jump
	// accelerates. Results are bit-identical either way; it is purely a
	// wall-clock lever.
	Dense bool
	// Fleet routes the Monte-Carlo ratio estimations (E1-E4) through the
	// columnar batched engine (ratio.RunFleet over internal/fleet):
	// batchable policy families amortize one policy loop across a whole
	// batch of seeded instances, everything else falls back to scalar
	// runs. Estimates are byte-identical either way; like Dense, it is
	// purely a wall-clock lever.
	Fleet bool
	// Shard routes the Monte-Carlo ratio estimations (E1-E4) through an
	// out-of-process chunk service — typically a shard.Coordinator
	// fanning seed-range chunks over qswitchd worker processes with
	// retries and checkpointing. Estimates are byte-identical to every
	// in-process backend; like Dense and Fleet, it is purely an
	// operational lever. Takes precedence over Fleet.
	Shard ratio.ChunkService
	// ShardChunk is the seeds-per-chunk granularity handed to
	// ratio.RunSharded when Shard is set (<= 0 selects the default).
	ShardChunk int
	// CITarget enables sequential stopping for the Monte-Carlo ratio
	// estimations (E1-E4): seed chunks are issued through whichever
	// backend the other levers select (scalar, fleet or shard)
	// until the Student-t CI half-width on the mean ratio clears the
	// target, capped at the experiment's usual seed budget. The stopped
	// seed count depends only on (Seed, SeqChunk), never on the backend.
	// A disabled (zero) target reproduces the fixed-N estimates
	// byte-identically.
	CITarget stats.Target
	// SeqChunk is the seeds-per-stopping-decision granularity when
	// CITarget is enabled (<= 0 selects the ratio package default).
	SeqChunk int
	// Paired routes the E2b beta sweep through ratio.RunPaired: every
	// beta steps identical arrival sequences via the fleet engine with
	// ONE offline-optimum solve per seed (instead of one per beta), and
	// the sweep's paired-difference columns come from the same
	// ratio.PairedDiff fold either way — so the table is byte-identical
	// to the independent path and, like Fleet, this is purely a
	// wall-clock/sample-efficiency lever. Shard takes precedence (paired
	// mode is in-process).
	Paired bool
	// Probes, when set, is the observability registry the process's
	// probe bundles flush into (see internal/obs/wire.Up). Experiments
	// never read it — probes only observe, and tables are byte-identical
	// with or without it — but runners snapshot it around each
	// experiment (ProbeSnapshot) to report run telemetry next to the
	// tables.
	Probes *obs.Registry
}

// ProbeSnapshot captures the current probe counters; nil without a
// Probes registry. Diff two snapshots with obs.DiffSnapshot to attribute
// work (slots simulated, judge solves, quiescent jumps) to one
// experiment.
func (o Options) ProbeSnapshot() map[string]float64 { return o.Probes.Snapshot() }

// fleetBatch is the batch size Options.Fleet hands to ratio.RunFleet.
const fleetBatch = 64

// ratioCIOQ measures OPT/ALG for a CIOQ policy family over seeded
// workloads, honoring Options.Shard and Options.Fleet. The policy and
// judge carry both an in-process constructor and the registry spec string
// shard workers resolve; results are byte-identical across backends.
func (o Options) ratioCIOQ(cfg switchsim.Config, pol cioqPolicyRef,
	judge judgeRef, gen packet.Generator, seed int64, runs int) (ratio.Estimate, error) {
	if o.CITarget.Enabled() {
		est, _, err := ratio.RunSequential(o.ctx(), o.cioqEvaluator(cfg, pol, judge, gen, seed),
			ratio.SequentialOptions{Target: o.CITarget, Chunk: o.SeqChunk, MaxRuns: runs})
		return est, err
	}
	if o.Shard != nil {
		return ratio.RunSharded(o.ctx(), o.Shard, ratio.ChunkRequest{
			Cfg: cfg, Policy: pol.spec, Judge: judge.spec, Gen: gen, BaseSeed: seed,
		}, runs, o.ShardChunk)
	}
	if o.Fleet {
		return ratio.RunFleet(o.ctx(), cfg, ratio.CIOQFleetAlg(pol.factory), judge.factory, gen, seed, runs, 1, fleetBatch)
	}
	return ratio.Run(o.ctx(), cfg, ratio.CIOQAlg(pol.factory), judge.factory, gen, seed, runs)
}

// cioqEvaluator adapts the backend the options select to the sequential
// driver's chunk interface, honoring the same precedence as ratioCIOQ.
func (o Options) cioqEvaluator(cfg switchsim.Config, pol cioqPolicyRef,
	judge judgeRef, gen packet.Generator, seed int64) ratio.ChunkEvaluator {
	if o.Shard != nil {
		return ratio.ShardedChunks(o.Shard, ratio.ChunkRequest{
			Cfg: cfg, Policy: pol.spec, Judge: judge.spec, Gen: gen, BaseSeed: seed,
		})
	}
	if o.Fleet {
		return ratio.FleetChunks(cfg, ratio.CIOQFleetAlg(pol.factory), judge.factory, gen, seed, fleetBatch)
	}
	return ratio.ScalarChunks(cfg, ratio.CIOQAlg(pol.factory), judge.factory, gen, seed)
}

// ratioCrossbar is ratioCIOQ for crossbar policy families.
func (o Options) ratioCrossbar(cfg switchsim.Config, pol crossbarPolicyRef,
	judge judgeRef, gen packet.Generator, seed int64, runs int) (ratio.Estimate, error) {
	if o.CITarget.Enabled() {
		est, _, err := ratio.RunSequential(o.ctx(), o.crossbarEvaluator(cfg, pol, judge, gen, seed),
			ratio.SequentialOptions{Target: o.CITarget, Chunk: o.SeqChunk, MaxRuns: runs})
		return est, err
	}
	if o.Shard != nil {
		return ratio.RunSharded(o.ctx(), o.Shard, ratio.ChunkRequest{
			Cfg: cfg, Crossbar: true, Policy: pol.spec, Judge: judge.spec, Gen: gen, BaseSeed: seed,
		}, runs, o.ShardChunk)
	}
	if o.Fleet {
		return ratio.RunFleet(o.ctx(), cfg, ratio.CrossbarFleetAlg(pol.factory), judge.factory, gen, seed, runs, 1, fleetBatch)
	}
	return ratio.Run(o.ctx(), cfg, ratio.CrossbarAlg(pol.factory), judge.factory, gen, seed, runs)
}

// crossbarEvaluator is cioqEvaluator for crossbar policy families.
func (o Options) crossbarEvaluator(cfg switchsim.Config, pol crossbarPolicyRef,
	judge judgeRef, gen packet.Generator, seed int64) ratio.ChunkEvaluator {
	if o.Shard != nil {
		return ratio.ShardedChunks(o.Shard, ratio.ChunkRequest{
			Cfg: cfg, Crossbar: true, Policy: pol.spec, Judge: judge.spec, Gen: gen, BaseSeed: seed,
		})
	}
	if o.Fleet {
		return ratio.FleetChunks(cfg, ratio.CrossbarFleetAlg(pol.factory), judge.factory, gen, seed, fleetBatch)
	}
	return ratio.ScalarChunks(cfg, ratio.CrossbarAlg(pol.factory), judge.factory, gen, seed)
}

// ctx is the context experiment runs execute under; experiments are
// synchronous today, so it is the background context.
func (o Options) ctx() context.Context { return context.Background() }

// confidence is the CI confidence level the ratio tables annotate at:
// the CITarget's level, 0.95 when no target is set.
func (o Options) confidence() float64 { return o.CITarget.ConfidenceLevel() }

// cioqPolicyRef couples a CIOQ policy family's in-process factory with
// the registry spec string a shard worker resolves to the same family.
type cioqPolicyRef struct {
	spec    string
	factory func() switchsim.CIOQPolicy
}

// crossbarPolicyRef is cioqPolicyRef for crossbar families.
type crossbarPolicyRef struct {
	spec    string
	factory func() switchsim.CrossbarPolicy
}

// judgeRef couples a judge factory with its registry spec string.
type judgeRef struct {
	spec    string
	factory ratio.JudgeFactory
}

// fmtParam renders a float policy parameter so it round-trips exactly
// through a registry spec string.
func fmtParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// cfg applies the experiment-wide simulation options to a config.
func (o Options) cfg(c switchsim.Config) switchsim.Config {
	c.Dense = o.Dense
	return c
}

// pick returns quick or full depending on the mode.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment couples an experiment's identity with its runner.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper claim this experiment reproduces
	Run   func(Options) ([]*stats.Table, error)
}

// All returns the registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"e1", "GM competitive ratio (unit CIOQ)",
			"Theorem 1: GM is 3-competitive for any speedup", E1GMRatio},
		{"e2", "PG competitive ratio and beta sweep (weighted CIOQ)",
			"Theorem 2: PG is (3+2*sqrt(2))-competitive at beta=1+sqrt(2)", E2PGRatio},
		{"e3", "CGU competitive ratio (unit crossbar)",
			"Theorem 3: CGU is 3-competitive (improves the known 4)", E3CGURatio},
		{"e4", "CPG parameters and ratio (weighted crossbar)",
			"Theorem 4: CPG is ~14.83-competitive at the asymmetric optimum", E4CPGParams},
		{"e5", "scheduling cost: greedy maximal vs maximum matching",
			"Section 1.1: greedy maximal matching is significantly more efficient", E5MatchingCost},
		{"e6", "throughput vs speedup",
			"Theorems 1-4 hold for any speedup; throughput saturates with s", E6Speedup},
		{"e7", "throughput vs buffer size",
			"buffer sensitivity of all four algorithms", E7Buffers},
		{"e8", "adversarial lower bounds",
			"Section 1.2/4: IQ lower bounds carry over; fuzzer stays below proven bounds", E8Adversarial},
		{"e9", "CIOQ vs buffered crossbar",
			"Section 1: crossbar buffers decrease scheduling overhead", E9CIOQvsCrossbar},
		{"e10", "value-distribution robustness and practical beta",
			"Section 4: choosing beta by traffic mix", E10ValueDists},
		{"e11", "rectangular N x M switches",
			"Section 4: all results generalize to N x M", E11Rect},
		{"e12", "maximal vs maximum matching: equal competitiveness",
			"Section 1.1: cheap maximal matchings lose no benefit in practice", E12MaximalVsMaximum},
		{"e13", "GM edge-order ablation",
			"the greedy scan order is a free choice; quantify its effect", E13EdgeOrder},
		{"e14", "randomization vs the adaptive adversary",
			"Section 4 open problem: randomized algorithms for CIOQ (empirical probe)", E14Randomization},
		{"e15", "non-FIFO vs FIFO queues",
			"the paper's non-FIFO model vs the FIFO related-work line", E15FIFOComparison},
		{"e16", "IQ model reduction and bounds at scale",
			"Section 1.2/4: GM/PG reduce to the classical IQ algorithms; IQ bounds carry over", E16IQModel},
	}
	sort.Slice(exps, func(a, b int) bool { return exps[a].ID < exps[b].ID })
	return exps
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// microCfg is the shared geometry for exact-optimum experiments.
func microCfg(o Options, slots int) switchsim.Config {
	return o.cfg(switchsim.Config{
		Inputs: 2, Outputs: 2,
		InputBuf: 2, OutputBuf: 2, CrossBuf: 1,
		Speedup: 1, Slots: slots,
	})
}

func boolMark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}

func fmtCfg(c switchsim.Config) string {
	return fmt.Sprintf("%dx%d Bin=%d Bout=%d Bx=%d s=%d",
		c.Inputs, c.Outputs, c.InputBuf, c.OutputBuf, c.CrossBuf, c.Speedup)
}
