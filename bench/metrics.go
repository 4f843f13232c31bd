package main

import "encoding/json"

// metricDef names one metric the suite reports. BENCHMARK.json at the
// repository root declares the same tables to the driver; bench_test.go
// holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the laboratory would see, reported per
// workload from the untraced run. The bounds are what the reference box can
// resolve: it is a 2-vCPU VM whose effective speed drifts by 5-25 % between
// runs a minute apart (README, "Noise"), so the three timings carry the
// largest bound the driver takes; the count repeats exactly for one seed
// and carries what its spread over ten seeds asks for. Heap allocation per
// pass is not here but in perLayer (bench.alloc_mb.*): on paper_tables it
// hangs on how hard a few dozen seeds are for the exact weighted judge, and
// spreads 25 % over ten seeds, which no bound the driver takes can hold.
var endToEnd = []metricDef{
	// Median wall-clock of one pass.
	{"wall_s", "s", "lower", 0.25},
	// Median user+sys CPU of one pass, this process and its reaped
	// children: shows a wall-clock win bought with more cores.
	{"cpu_s", "s", "lower", 0.25},
	// Simulated switch-slots per host second, the cross-workload
	// simulator-speed figure.
	{"slots_per_s", "1/s", "higher", 0.25},
	// Switch-slots simulated per pass, counted from the inputs handed in.
	// Constant on fixed-N cells for a given seed; moved by
	// sample-efficiency work (seq_gm16, the hunts).
	{"sim_slots", "count", "lower", 0.10},
	// Everything before the first timed pass: input generation, trace
	// writing, reference tables, the warm-up pass.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported from the traced run.
// A metric is measured at full scale in the run of its home workload (the
// one its name or layer points at) and from a smoke-scale probe pass in the
// runs of the others, so each (workload, metric) pair is only comparable
// with itself.
var perLayer = []metricDef{
	{"packet.generate_ns_per_pkt", "ns", "lower", 0},
	{"packet.stream_ns_per_pkt", "ns", "lower", 0},
	{"packet.stream_busy_frac", "frac", "lower", 0},
	{"packet.trace_decode_ns_per_pkt", "ns", "lower", 0},
	{"packet.trace_encode_ns_per_pkt", "ns", "lower", 0},

	{"switchsim.dense_ns_per_slot.gm", "ns", "lower", 0},
	{"switchsim.dense_ns_per_slot.pg", "ns", "lower", 0},
	{"switchsim.dense_ns_per_slot.cgu", "ns", "lower", 0},
	{"switchsim.dense_ns_per_slot.cpg", "ns", "lower", 0},
	{"switchsim.stream_ns_per_slot.cioq_gm", "ns", "lower", 0},
	{"switchsim.stream_ns_per_slot.xbar_cpg", "ns", "lower", 0},
	{"switchsim.quiescent_ns_per_slot", "ns", "lower", 0},
	{"switchsim.crossdrain_ns_per_slot", "ns", "lower", 0},
	{"switchsim.stepper_ns_per_run", "ns", "lower", 0},
	{"switchsim.micro_us_per_seed", "us", "lower", 0},
	{"switchsim.jumped_frac", "frac", "higher", 0},
	{"switchsim.jumps", "count", "lower", 0},

	{"core.schedule_ns_per_call.gm", "ns", "lower", 0},
	{"core.schedule_ns_per_call.pg", "ns", "lower", 0},
	{"core.schedule_ns_per_call.cgu", "ns", "lower", 0},
	{"core.schedule_ns_per_call.cpg", "ns", "lower", 0},
	{"core.policy_busy_frac.dense_switch", "frac", "lower", 0},
	{"matching.greedy_ns_per_call64", "ns", "lower", 0},
	{"matching.greedy_weighted_ns_per_call64", "ns", "lower", 0},
	{"matching.hk_ns_per_call64", "ns", "lower", 0},
	{"matching.hungarian_ns_per_call64", "ns", "lower", 0},
	{"queue.push_preempt_ns", "ns", "lower", 0},

	{"fleet.step_ns_per_slot.gm16", "ns", "lower", 0},
	{"fleet.step_ns_per_slot.cgu16", "ns", "lower", 0},
	{"fleet.step_ns_per_slot.pg64", "ns", "lower", 0},
	{"fleet.step_ns_per_slot.cpg64", "ns", "lower", 0},
	{"fleet.step_ns_per_slot.pg256", "ns", "lower", 0},
	{"fleet.step_ns_per_slot.krmwm64", "ns", "lower", 0},
	{"fleet.busy_frac.fleet_montecarlo", "frac", "lower", 0},
	{"fleet.kernel_frac", "frac", "higher", 0},

	{"offline.exact_unit_cioq_us_per_seed", "us", "lower", 0},
	{"offline.exact_unit_xbar_us_per_seed", "us", "lower", 0},
	{"offline.exact_weighted_cioq_us_per_seed", "us", "lower", 0},
	{"offline.exact_weighted_xbar_us_per_seed", "us", "lower", 0},
	{"offline.ub_ns_per_pkt.gm16", "ns", "lower", 0},
	{"offline.ub_ns_per_pkt.pg64", "ns", "lower", 0},
	{"offline.ub_ns_per_pkt.pg256", "ns", "lower", 0},
	{"offline.judge_busy_frac.paper_tables", "frac", "lower", 0},
	{"offline.judge_busy_frac.fleet_montecarlo", "frac", "lower", 0},
	{"offline.judge_busy_frac.adversary_hunt", "frac", "lower", 0},
	{"offline.judge_solves", "count", "lower", 0},

	{"ratio.merge_ns_per_seed", "ns", "lower", 0},
	{"ratio.driver_self_frac.paper_tables", "frac", "lower", 0},
	{"ratio.driver_self_frac.fleet_montecarlo", "frac", "lower", 0},
	{"ratio.seeds_to_target", "count", "lower", 0},
	{"ratio.chunks", "count", "lower", 0},
	{"stats.sketch_ns_per_obs", "ns", "lower", 0},
	{"experiments.table_s.e1", "s", "lower", 0},
	{"experiments.table_s.e2", "s", "lower", 0},
	{"experiments.table_s.e3", "s", "lower", 0},
	{"experiments.table_s.e4", "s", "lower", 0},

	{"shard.chunk_rtt_us_p50", "us", "lower", 0},
	{"shard.chunk_rtt_us_p99", "us", "lower", 0},
	{"shard.worker_busy_frac", "frac", "higher", 0},
	{"shard.spawn_ms", "ms", "lower", 0},
	{"shard.resume_ms", "ms", "lower", 0},
	{"shard.checkpoint_hit_us", "us", "lower", 0},
	{"shard.checkpoint_bytes", "bytes", "lower", 0},
	{"shard.checkpoint_cost_frac", "frac", "lower", 0},
	{"shard.chunks_executed", "count", "lower", 0},
	{"shard.checkpoint_hits", "count", "higher", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.overhead_frac", "frac", "lower", 0},

	{"adversary.evals_per_s", "1/s", "higher", 0},
	{"adversary.eval_busy_frac", "frac", "lower", 0},
	{"adversary.search_self_frac", "frac", "lower", 0},

	{"obs.probes_on_overhead_frac.dense_switch", "frac", "lower", 0},
	{"obs.probes_on_overhead_frac.paper_tables", "frac", "lower", 0},

	{"bench.trace_overhead_frac.paper_tables", "frac", "lower", 0},
	{"bench.trace_overhead_frac.dense_switch", "frac", "lower", 0},
	{"bench.trace_overhead_frac.sparse_stream", "frac", "lower", 0},
	{"bench.trace_overhead_frac.fleet_montecarlo", "frac", "lower", 0},
	{"bench.trace_overhead_frac.sharded_service", "frac", "lower", 0},
	{"bench.trace_overhead_frac.adversary_hunt", "frac", "lower", 0},
	{"bench.peak_rss_mb.paper_tables", "MiB", "lower", 0},
	{"bench.peak_rss_mb.dense_switch", "MiB", "lower", 0},
	{"bench.peak_rss_mb.sparse_stream", "MiB", "lower", 0},
	{"bench.peak_rss_mb.fleet_montecarlo", "MiB", "lower", 0},
	{"bench.peak_rss_mb.sharded_service", "MiB", "lower", 0},
	{"bench.peak_rss_mb.adversary_hunt", "MiB", "lower", 0},
	{"bench.gc_count.paper_tables", "count", "lower", 0},
	{"bench.gc_count.dense_switch", "count", "lower", 0},
	{"bench.gc_count.sparse_stream", "count", "lower", 0},
	{"bench.gc_count.fleet_montecarlo", "count", "lower", 0},
	{"bench.gc_count.sharded_service", "count", "lower", 0},
	{"bench.gc_count.adversary_hunt", "count", "lower", 0},
	// Heap bytes allocated per bare pass in the workload process
	// (MemStats.TotalAlloc). Repeats within 0.1 % for one seed.
	{"bench.alloc_mb.paper_tables", "MiB", "lower", 0},
	{"bench.alloc_mb.dense_switch", "MiB", "lower", 0},
	{"bench.alloc_mb.sparse_stream", "MiB", "lower", 0},
	{"bench.alloc_mb.fleet_montecarlo", "MiB", "lower", 0},
	{"bench.alloc_mb.sharded_service", "MiB", "lower", 0},
	{"bench.alloc_mb.adversary_hunt", "MiB", "lower", 0},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
