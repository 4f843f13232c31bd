// Package experiments implements the paper-reproduction experiment suite
// E1–E16 (All lists them, each with the paper claim it tests). Each
// experiment regenerates one table or figure's worth of data:
// competitive-ratio measurements against exact offline optima (E1–E4, E8),
// scheduling-cost comparisons backing the paper's efficiency claim (E5,
// E9, E12), throughput studies across speedup, buffers, traffic and value
// distributions (E6, E7, E10, E11), and the ablations and model probes of
// E13–E16.
//
// Experiments are pure functions from Options to stats.Tables so the same
// code serves the switchbench CLI, the test suite (quick mode) and the
// root benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// Options controls experiment scale and the backend the Monte-Carlo
// ratio estimations (E1-E4) run on. The backend levers never change a
// table — every estimate is byte-identical on each backend — and they
// resolve in one order: Shard, when set, wins over Fleet, and Fleet over
// the scalar engine; CITarget adds sequential stopping on whichever of
// the three is chosen; Paired reroutes only the E2b beta sweep, and only
// when Shard is unset.
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
	// Fleet routes the ratio estimations through the columnar batched
	// engine (ratio.FleetChunks over internal/fleet): batchable policy
	// families amortize one policy loop across a whole batch of seeded
	// instances, everything else falls back to scalar runs.
	Fleet bool
	// Shard routes the ratio estimations through an out-of-process chunk
	// service — typically a shard.Coordinator fanning seed-range chunks
	// over qswitchd worker processes with retries and checkpointing.
	Shard ratio.ChunkService
	// ShardChunk is the seeds-per-chunk granularity handed to
	// ratio.RunSharded when Shard is set (<= 0 selects the default).
	ShardChunk int
	// CITarget enables sequential stopping for the ratio estimations:
	// seed chunks are issued until the Student-t CI half-width on the
	// mean ratio clears the target, capped at the experiment's usual seed
	// budget. The stopped seed count depends only on (Seed, SeqChunk),
	// never on the backend. A disabled (zero) target reproduces the
	// fixed-N estimates byte-identically.
	CITarget stats.Target
	// SeqChunk is the seeds-per-stopping-decision granularity when
	// CITarget is enabled (<= 0 selects the ratio package default).
	SeqChunk int
	// Paired routes the E2b beta sweep through ratio.RunPaired: every
	// beta steps identical arrival sequences via the fleet engine with
	// ONE offline-optimum solve per seed (instead of one per beta), and
	// the sweep's paired-difference columns come from the same
	// ratio.PairedDiff fold either way — so the table is byte-identical
	// to the independent path and this is purely a
	// wall-clock/sample-efficiency lever.
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

// fleetBatch is the batch size Options.Fleet hands to ratio.FleetChunks.
const fleetBatch = 64

// estimate measures OPT/ALG for one policy family over `runs` seeded
// workloads on the backend the options select (see Options). On the scalar
// and fleet engines it runs on GOMAXPROCS workers, each with its own
// evaluator — its own judge, seed generator and fleet storage — so
// GOMAXPROCS=1 is one worker on the caller's goroutine. A fixed budget is
// cut into about four chunks a worker on the scalar engine and into fleet
// batches on the fleet; a CI target decides at every SeqChunk seeds. A
// fixed budget on a shard puts every chunk in flight at once, and a target
// on a shard issues its chunks one at a time. The seed-ordered merge makes
// every estimate byte-identical at any worker count and chunk size.
func (o Options) estimate(cfg switchsim.Config, pol policyRef, judge judgeRef, gen packet.Generator,
	seed int64, runs int) (ratio.Estimate, error) {
	req := ratio.ChunkRequest{Cfg: cfg, Crossbar: pol.crossbar, Policy: pol.spec, Judge: judge.spec, Gen: gen, BaseSeed: seed}
	seq := ratio.SequentialOptions{Target: o.CITarget, Chunk: o.SeqChunk, MaxRuns: runs}
	mint := func() ratio.ChunkEvaluator { return ratio.ScalarChunks(cfg, pol.alg, judge.factory, gen, seed) }
	chunk := max(1, runs/(4*runtime.GOMAXPROCS(0)))
	switch {
	case o.Shard != nil && !o.CITarget.Enabled():
		return ratio.RunSharded(o.ctx(), o.Shard, req, runs, o.ShardChunk)
	case o.Shard != nil:
		est, _, err := ratio.RunSequential(o.ctx(), ratio.ShardedChunks(o.Shard, req), seq)
		return est, err
	case o.Fleet:
		mint = func() ratio.ChunkEvaluator {
			return ratio.FleetChunks(cfg, pol.fleet, judge.factory, gen, seed, fleetBatch)
		}
		chunk = fleetBatch
	}
	if !o.CITarget.Enabled() {
		seq.Chunk = chunk
	}
	est, _, err := ratio.RunSequentialPool(o.ctx(), mint, seq)
	return est, err
}

// ctx is the context experiment runs execute under; experiments are
// synchronous today, so it is the background context.
func (o Options) ctx() context.Context { return context.Background() }

// confidence is the CI confidence level the ratio tables annotate at:
// the CITarget's level, 0.95 when no target is set.
func (o Options) confidence() float64 { return o.CITarget.ConfidenceLevel() }

// policyRef couples a policy family's in-process engines with the
// registry spec string a shard worker resolves to the same family.
type policyRef struct {
	spec     string
	crossbar bool
	alg      ratio.Alg
	fleet    ratio.FleetAlgFactory
}

// cioqRef is the policyRef of a CIOQ policy family.
func cioqRef(spec string, f func() switchsim.CIOQPolicy) policyRef {
	return policyRef{spec: spec, alg: ratio.CIOQAlg(f), fleet: ratio.CIOQFleetAlg(f)}
}

// crossbarRef is the policyRef of a buffered-crossbar policy family.
func crossbarRef(spec string, f func() switchsim.CrossbarPolicy) policyRef {
	return policyRef{spec: spec, crossbar: true, alg: ratio.CrossbarAlg(f), fleet: ratio.CrossbarFleetAlg(f)}
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
