package offline

import (
	"math/rand"
	"slices"
	"testing"

	"qswitch/internal/flow"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Steady-state allocation regression tests for the judge layer, matching
// the PR 1–4 alloc-pin style: once a reused solver's scratch is at its
// high-water size, judging another sequence must not allocate at all.

func allocSeq(slots int) (switchsim.Config, packet.Sequence) {
	cfg := switchsim.Config{Inputs: 8, Outputs: 8, InputBuf: 2, OutputBuf: 4,
		CrossBuf: 1, Speedup: 2, Slots: slots}
	rng := rand.New(rand.NewSource(9))
	seq := packet.PoissonBurst{OffMean: 40, BurstMean: 5,
		Values: packet.UniformValues{Hi: 30}}.Generate(rng, 8, 8, slots)
	return cfg, seq
}

// TestQueueOPTSolverZeroAllocsSteadyState pins the reused single-queue
// sweep: once its heap (and, for input out of arrival order, its sorted
// scratch copy) is at high-water size, another solve allocates nothing.
func TestQueueOPTSolverZeroAllocsSteadyState(t *testing.T) {
	cfg, seq := allocSeq(600)
	byOut := make([][]packet.Packet, cfg.Outputs)
	partition(seq, cfg.Slots, byOut, nil)
	slices.Reverse(byOut[0]) // one port out of arrival order
	var q QueueOPTSolver
	port := 0
	solve := func() {
		q.Solve(byOut[port%len(byOut)], cfg.Slots, 20, 1)
		port++
	}
	for w := 0; w < 2*len(byOut); w++ {
		solve()
	}
	if allocs := testing.AllocsPerRun(64, solve); allocs != 0 {
		t.Errorf("reused QueueOPTSolver allocates %.1f/solve, want 0", allocs)
	}
}

// TestUpperBoundSolverZeroAllocsSteadyState pins a warm solver at zero
// allocations on a weighted sequence (the heap pass), on a unit one (the
// counter pass) and on a unit one whose last due packet is valued (the
// counter pass, then the heap pass from scratch).
func TestUpperBoundSolverZeroAllocsSteadyState(t *testing.T) {
	cfg, weighted := allocSeq(600)
	unit := packet.Bernoulli{Load: 1.2}.Generate(rand.New(rand.NewSource(9)), 8, 8, 600)
	restart := slices.Clone(unit)
	restart[len(restart)-1].Value = 3
	for name, seq := range map[string]packet.Sequence{"weighted": weighted, "unit": unit, "restart": restart} {
		var s UpperBoundSolver
		judge := func() {
			if _, err := s.CombinedUpperBound(cfg, seq, true); err != nil {
				t.Fatal(err)
			}
		}
		judge() // warm-up: the per-port heaps reach high-water size
		if allocs := testing.AllocsPerRun(32, judge); allocs != 0 {
			t.Errorf("reused UpperBoundSolver allocates %.1f/judge on the %s sequence, want 0", allocs, name)
		}
	}
}

// TestExactUnitSolverWarmAllocsOnlyMemo pins the reusable-solver
// treatment of the exact DPs: the memo is a table the solver keeps (its
// name dates from the map[string]int64 memo, whose key strings were the
// one thing a warm solve allocated), the state is a word and the arrival
// index is scratch, so once a solver is warm re-Solving allocates nothing
// at all — on an instance that fills the first memo level several times
// over, for both unit solvers and both weighted entry points.
func TestExactUnitSolverWarmAllocsOnlyMemo(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2,
		InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Validate: true}
	unit := packet.Bernoulli{Load: 1.2}.Generate(rand.New(rand.NewSource(3)), 2, 2, 6)
	weighted := weightedSeq(3, 4, 0.9, 10)

	var su UnitCIOQSolver
	var sx UnitCrossbarSolver
	var sw WeightedSolver
	for _, tc := range []struct {
		name  string
		memo  *wordMemo
		solve func() (int64, error)
	}{
		{"UnitCIOQSolver.Solve", &su.memo, func() (int64, error) { return su.Solve(cfg, unit) }},
		{"UnitCrossbarSolver.Solve", &sx.memo, func() (int64, error) { return sx.Solve(cfg, unit) }},
		{"WeightedSolver.SolveCIOQ", &sw.memo, func() (int64, error) { return sw.SolveCIOQ(cfg, weighted) }},
		{"WeightedSolver.SolveCrossbar", &sw.memo, func() (int64, error) { return sw.SolveCrossbar(cfg, weighted) }},
	} {
		if _, err := tc.solve(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.memo.used == 0 {
			t.Errorf("%s: the instance memoised no state", tc.name)
		}
		if warm := testing.AllocsPerRun(16, func() { tc.solve() }); warm != 0 {
			t.Errorf("warm %s allocates %.1f, want 0 (%d memo entries)", tc.name, warm, tc.memo.used)
		}
	}
}

// TestExactSolverScratchReuseHalvesColdAllocs isolates the scratch that
// the reusable exact solvers retain across Solve calls (memo buckets,
// recursion frames, key buffers, used-port flags): on an instance whose
// search tree is shallow, those one-time structures dominate a cold
// solve, so a warm re-Solve must cost at most half a cold one.
func TestExactSolverScratchReuseHalvesColdAllocs(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2,
		InputBuf: 2, OutputBuf: 2, CrossBuf: 2,
		Speedup: 2, Slots: 12, Validate: true}

	pin := func(name string, solve func() (int64, error), warmSolve func() (int64, error)) {
		t.Helper()
		cold := testing.AllocsPerRun(8, func() {
			if _, err := solve(); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := warmSolve(); err != nil {
			t.Fatal(err)
		}
		warm := testing.AllocsPerRun(8, func() { warmSolve() })
		if warm > cold/2 {
			t.Errorf("%s: warm re-Solve allocates %.1f vs %.1f cold, want <= half",
				name, warm, cold)
		}
	}

	var su UnitCIOQSolver
	pin("UnitCIOQSolver",
		func() (int64, error) { var s UnitCIOQSolver; return s.Solve(cfg, nil) },
		func() (int64, error) { return su.Solve(cfg, nil) })
	var sw WeightedSolver
	pin("WeightedSolver/cioq",
		func() (int64, error) { var s WeightedSolver; return s.SolveCIOQ(cfg, nil) },
		func() (int64, error) { return sw.SolveCIOQ(cfg, nil) })
	var swx WeightedSolver
	pin("WeightedSolver/crossbar",
		func() (int64, error) { var s WeightedSolver; return s.SolveCrossbar(cfg, nil) },
		func() (int64, error) { return swx.SolveCrossbar(cfg, nil) })
}

// TestMCMFSolverZeroAllocsSteadyState pins the solver-object refactor of
// the retained flow reference: rebuilding and solving a same-shaped graph
// on a reused MCMFSolver allocates nothing once warm.
func TestMCMFSolverZeroAllocsSteadyState(t *testing.T) {
	_, seq := allocSeq(120)
	byOut := make([][]packet.Packet, 8)
	partition(seq, 120, byOut, nil)
	pkts := byOut[0]
	m := flow.NewMCMF(1)
	solve := func() {
		base := 2
		m.Reset(base + 2*120 + len(pkts))
		for t := 0; t < 120; t++ {
			m.AddEdge(base+2*t, base+2*t+1, 20, 0)
			m.AddEdge(base+2*t+1, 1, 1, 0)
			if t+1 < 120 {
				m.AddEdge(base+2*t+1, base+2*(t+1), 20, 0)
			}
		}
		for k, p := range pkts {
			m.AddEdge(0, base+2*120+k, 1, -p.Value)
			m.AddEdge(base+2*120+k, base+2*p.Arrival, 1, 0)
		}
		m.MaxBenefit(0, 1)
	}
	solve()
	if allocs := testing.AllocsPerRun(16, solve); allocs != 0 {
		t.Errorf("reused MCMFSolver allocates %.1f/rebuild+solve, want 0", allocs)
	}
}
