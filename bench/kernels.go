package main

import (
	"context"
	"math/rand"
	"time"

	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
	"qswitch/internal/ratio"
	"qswitch/internal/stats"
)

// kernelBudget is how long each kernel is timed for.
const kernelBudget = 40 * time.Millisecond

// perCallNS calls fn in growing batches until budget has passed and returns
// the mean ns per call. The clock is read once per batch, so it does not
// show in a 20 ns kernel.
func perCallNS(budget time.Duration, fn func()) float64 {
	var calls int64
	t0 := time.Now()
	for batch := int64(1); ; batch *= 2 {
		for i := int64(0); i < batch; i++ {
			fn()
		}
		calls += batch
		if d := time.Since(t0); d >= budget {
			return float64(d) / float64(calls)
		}
	}
}

// kernelMetrics times the layers no workload can isolate from outside —
// the matching engines, the queue's preemptive push, the quantile sketch
// and the seed-ordered merge — directly, on fixed inputs drawn from seed.
// The matching inputs are a half-dense 64×64 eligibility graph, the shape
// dense_switch's policies hand the engines every cycle, and the engines are
// the reusable ones the policies hold.
func kernelMetrics(seed int64) map[string]float64 {
	const n = 64
	rng := rand.New(rand.NewSource(seed))
	var edges []matching.Edge
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			if rng.Float64() < 0.5 {
				w[i][j] = rng.Int63n(100) + 1
				edges = append(edges, matching.Edge{U: i, V: j, W: w[i][j]})
			}
		}
	}
	adj := matching.AdjFromEdges(n, edges)
	var (
		greedy    matching.Matcher
		weighted  matching.WeightedScheduler
		hk        matching.HKMatcher
		hungarian matching.HungarianSolver
	)
	out := map[string]float64{
		"matching.greedy_ns_per_call64":          perCallNS(kernelBudget, func() { greedy.GreedyMaximal(n, n, edges) }),
		"matching.greedy_weighted_ns_per_call64": perCallNS(kernelBudget, func() { weighted.GreedyMaximalWeighted(n, n, edges) }),
		"matching.hk_ns_per_call64":              perCallNS(kernelBudget, func() { hk.MaxMatching(n, n, adj) }),
		"matching.hungarian_ns_per_call64":       perCallNS(kernelBudget, func() { hungarian.Solve(w) }),
	}

	q := queue.New(16, queue.ByValue)
	id := int64(0)
	out["queue.push_preempt_ns"] = perCallNS(kernelBudget, func() {
		id++
		q.PushPreempt(packet.Packet{ID: id, Value: rng.Int63n(1000) + 1})
		if id%16 == 0 {
			q.PopHead()
		}
	})

	sk := stats.NewQuantileSketch(0.5, 0.99)
	out["stats.sketch_ns_per_obs"] = perCallNS(kernelBudget, func() { sk.Add(rng.Float64()) })

	outcomes := make([]ratio.SeedOutcome, 4096)
	for i := range outcomes {
		outcomes[i] = ratio.SeedOutcome{Seed: seed + int64(i), Ratio: 1 + rng.Float64(), Skipped: i%17 == 0}
	}
	ctx := context.Background()
	out["ratio.merge_ns_per_seed"] = perCallNS(kernelBudget, func() {
		if _, err := ratio.MergeOutcomes(ctx, outcomes); err != nil {
			panic(err) // the outcomes above carry no error
		}
	}) / float64(len(outcomes))
	return out
}
