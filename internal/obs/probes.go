package obs

import "time"

// Metric names flushed by the probe bundles. They are constants so the
// progress tracker, CLIs and tests can read them back without stringly
// drift.
const (
	// Engine probes (switchsim run functions).
	MetricEngineRuns        = "qswitch_engine_runs_total"
	MetricEngineSlots       = "qswitch_engine_slots_total"
	MetricEngineDenseSlots  = "qswitch_engine_dense_slots_total"
	MetricEngineJumpedSlots = "qswitch_engine_jumped_slots_total"
	MetricEngineJumps       = "qswitch_engine_jumps_total"

	// Fleet probes (columnar engine runners).
	MetricFleetBatches     = "qswitch_fleet_batches_total"
	MetricFleetKernel      = "qswitch_fleet_kernel_instances_total"
	MetricFleetFallback    = "qswitch_fleet_fallback_instances_total"
	MetricFleetSlots       = "qswitch_fleet_slots_total"
	MetricFleetPassThrough = "qswitch_fleet_passthrough_deliveries_total"

	// Judge probes (offline optimum solvers).
	MetricJudgeSolves      = "qswitch_judge_solves_total"
	MetricJudgePackets     = "qswitch_judge_packets_total"
	MetricJudgeEpochs      = "qswitch_judge_epochs_total"
	MetricJudgeExactSolves = "qswitch_judge_exact_solves_total"

	// Sequential-estimation probes (ratio.RunSequential).
	MetricSeqRuns         = "qswitch_seq_runs_total"
	MetricSeqChunks       = "qswitch_seq_chunks_total"
	MetricSeqSeedsTotal   = "qswitch_seq_seeds_total"
	MetricSeqSeeds        = "qswitch_seq_seeds"
	MetricSeqBudget       = "qswitch_seq_budget"
	MetricSeqHalfWidth    = "qswitch_seq_halfwidth"
	MetricSeqTarget       = "qswitch_seq_target_halfwidth"
	MetricSeqChunkSeconds = "qswitch_seq_chunk_seconds"
)

// EngineProbes is the scalar engines' probe bundle: run counts and
// the dense-slot vs quiescent-jump breakdown. Engines accumulate in
// plain per-run integers and flush once per run via RecordRun, so the
// per-slot overhead is zero. The zero and nil values are no-ops.
type EngineProbes struct {
	// Runs counts completed engine runs.
	Runs *Counter
	// Slots counts simulated switch slots, including jumped ones.
	Slots *Counter
	// DenseSlots counts slots that ran the full per-slot body.
	DenseSlots *Counter
	// JumpedSlots counts slots advanced in closed form by quiescent/idle
	// jumps.
	JumpedSlots *Counter
	// Jumps counts individual quiescent/idle jumps taken.
	Jumps *Counter
}

// NewEngineProbes registers the engine metrics in r (nil r yields a
// fully disabled bundle).
func NewEngineProbes(r *Registry) *EngineProbes {
	return &EngineProbes{
		Runs:        r.Counter(MetricEngineRuns),
		Slots:       r.Counter(MetricEngineSlots),
		DenseSlots:  r.Counter(MetricEngineDenseSlots),
		JumpedSlots: r.Counter(MetricEngineJumpedSlots),
		Jumps:       r.Counter(MetricEngineJumps),
	}
}

// RecordRun flushes one finished run: slots simulated in total, how many
// of them were jumped, and how many jumps covered them. Safe on a nil
// receiver.
func (p *EngineProbes) RecordRun(slots, jumped, jumps int64) {
	if p == nil {
		return
	}
	p.Runs.Inc()
	p.Slots.Add(slots)
	p.DenseSlots.Add(slots - jumped)
	p.JumpedSlots.Add(jumped)
	p.Jumps.Add(jumps)
}

// FleetProbes is the columnar fleet engine's probe bundle: how many
// instances rode a batched kernel vs fell back to scalar runs, and how
// many output deliveries took the pass-through shortcut. The zero and
// nil values are no-ops.
type FleetProbes struct {
	// Batches counts Runner.Run calls.
	Batches *Counter
	// KernelInstances counts instances stepped by a batched kernel.
	KernelInstances *Counter
	// FallbackInstances counts instances that fell back to scalar runs
	// (their slots land in the engine probes instead of Slots here).
	FallbackInstances *Counter
	// Slots counts switch slots covered by kernel-batched instances.
	Slots *Counter
	// PassThrough counts output deliveries that parked in the pend
	// buffer instead of round-tripping through the output ring.
	PassThrough *Counter
}

// NewFleetProbes registers the fleet metrics in r (nil r yields a fully
// disabled bundle).
func NewFleetProbes(r *Registry) *FleetProbes {
	return &FleetProbes{
		Batches:           r.Counter(MetricFleetBatches),
		KernelInstances:   r.Counter(MetricFleetKernel),
		FallbackInstances: r.Counter(MetricFleetFallback),
		Slots:             r.Counter(MetricFleetSlots),
		PassThrough:       r.Counter(MetricFleetPassThrough),
	}
}

// RecordKernel flushes one kernel-batched run: instances stepped, total
// switch slots they covered, and pass-through deliveries taken. Safe on
// a nil receiver.
func (p *FleetProbes) RecordKernel(instances, slots, passThrough int64) {
	if p == nil {
		return
	}
	p.Batches.Inc()
	p.KernelInstances.Add(instances)
	p.Slots.Add(slots)
	p.PassThrough.Add(passThrough)
}

// RecordFallback flushes one scalar-fallback run of `instances`
// per-instance engine runs. Safe on a nil receiver.
func (p *FleetProbes) RecordFallback(instances int64) {
	if p == nil {
		return
	}
	p.Batches.Inc()
	p.FallbackInstances.Add(instances)
}

// JudgeProbes is the offline judge layer's probe bundle: solve counts
// and the epoch-compression sizes that explain why judging is
// horizon-independent. The zero and nil values are no-ops.
type JudgeProbes struct {
	// Solves counts single-queue solves: one per relaxed port of every
	// upper-bound judge call, one per QueueOPTSolver.Solve.
	Solves *Counter
	// Packets counts packets fed to those solves.
	Packets *Counter
	// Epochs counts the distinct arrival slots of those solves — the only
	// points of the timeline a solve touches; Epochs/Packets is the
	// compression ratio.
	Epochs *Counter
	// ExactSolves counts exact DP judge solves (ExactUnit*/ExactWeighted*).
	ExactSolves *Counter
}

// NewJudgeProbes registers the judge metrics in r (nil r yields a fully
// disabled bundle).
func NewJudgeProbes(r *Registry) *JudgeProbes {
	return &JudgeProbes{
		Solves:      r.Counter(MetricJudgeSolves),
		Packets:     r.Counter(MetricJudgePackets),
		Epochs:      r.Counter(MetricJudgeEpochs),
		ExactSolves: r.Counter(MetricJudgeExactSolves),
	}
}

// RecordSolve flushes one single-queue solve over `packets` packets
// arriving in `epochs` distinct slots. Safe on a nil receiver.
func (p *JudgeProbes) RecordSolve(packets, epochs int64) {
	p.RecordSolves(1, packets, epochs)
}

// RecordSolves flushes the `solves` single-queue solves of one bound call
// at once: their packets and distinct arrival slots, summed. Safe on a nil
// receiver.
func (p *JudgeProbes) RecordSolves(solves, packets, epochs int64) {
	if p == nil {
		return
	}
	p.Solves.Add(solves)
	p.Packets.Add(packets)
	p.Epochs.Add(epochs)
}

// RecordExactSolve flushes one exact DP judge solve. Safe on a nil
// receiver.
func (p *JudgeProbes) RecordExactSolve() {
	if p == nil {
		return
	}
	p.ExactSolves.Inc()
}

// SeqProbes is the sequential-estimation probe bundle: chunk latencies
// and the half-width trajectory RunSequential walks toward its precision
// target, plus the seed counters the progress tracker derives rates and
// ETA from. The zero and nil values are no-ops.
type SeqProbes struct {
	// Runs counts RunSequential invocations.
	Runs *Counter
	// Chunks counts evaluated seed chunks.
	Chunks *Counter
	// SeedsTotal counts seeds issued across all runs.
	SeedsTotal *Counter
	// Seeds is the current run's issued seed count.
	Seeds *Gauge
	// Budget is the current run's seed budget (MaxRuns).
	Budget *Gauge
	// HalfWidth is the current run's latest CI half-width.
	HalfWidth *FloatGauge
	// Target is the current run's absolute half-width target (0 when
	// disabled or relative).
	Target *FloatGauge
	// ChunkSeconds is the per-chunk evaluation latency distribution.
	ChunkSeconds *Histogram
}

// NewSeqProbes registers the sequential-estimation metrics in r (nil r
// yields a fully disabled bundle).
func NewSeqProbes(r *Registry) *SeqProbes {
	return &SeqProbes{
		Runs:       r.Counter(MetricSeqRuns),
		Chunks:     r.Counter(MetricSeqChunks),
		SeedsTotal: r.Counter(MetricSeqSeedsTotal),
		Seeds:      r.Gauge(MetricSeqSeeds),
		Budget:     r.Gauge(MetricSeqBudget),
		HalfWidth:  r.FloatGauge(MetricSeqHalfWidth),
		Target:     r.FloatGauge(MetricSeqTarget),
		ChunkSeconds: r.Histogram(MetricSeqChunkSeconds,
			0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10),
	}
}

// StartRun flushes a sequential run's start: its seed budget and
// absolute half-width target. Safe on a nil receiver.
func (p *SeqProbes) StartRun(budget int64, target float64) {
	if p == nil {
		return
	}
	p.Runs.Inc()
	p.Seeds.Set(0)
	p.Budget.Set(budget)
	p.HalfWidth.Set(0)
	p.Target.Set(target)
}

// RecordChunk flushes one evaluated chunk: its latency, how many seeds
// it brought the run to, how many of them it issued, and the CI
// half-width after folding it in. Safe on a nil receiver.
func (p *SeqProbes) RecordChunk(d time.Duration, seedsIssued, seedsRun int64, halfWidth float64) {
	if p == nil {
		return
	}
	p.Chunks.Inc()
	p.SeedsTotal.Add(seedsIssued)
	p.Seeds.Set(seedsRun)
	p.HalfWidth.Set(halfWidth)
	p.ChunkSeconds.Observe(d.Seconds())
}
