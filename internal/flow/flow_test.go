package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// rndEdge is one edge of a random test network.
type rndEdge struct {
	u, v int
	c    int64
}

// randomNetwork returns up to m random edges (cycles allowed, no
// self-loops) over n nodes.
func randomNetwork(rng *rand.Rand, n, m int) []rndEdge {
	edges := make([]rndEdge, 0, m)
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, rndEdge{u, v, int64(rng.Intn(10) + 1)})
	}
	return edges
}

func TestMCMFSimpleSelection(t *testing.T) {
	// Two items of value 5 and 3 compete for one slot (capacity-1
	// bottleneck into the sink): benefit 5.
	m := NewMCMF(5)
	m.AddEdge(0, 1, 1, -5)
	m.AddEdge(0, 2, 1, -3)
	m.AddEdge(1, 3, 1, 0)
	m.AddEdge(2, 3, 1, 0)
	m.AddEdge(3, 4, 1, 0)
	flow, benefit := m.MaxBenefit(0, 4)
	if flow != 1 || benefit != 5 {
		t.Errorf("flow=%d benefit=%d, want 1, 5", flow, benefit)
	}
}

func TestMCMFTakesAllProfitable(t *testing.T) {
	// Three items, two slots: take the best two.
	m := NewMCMF(5)
	for k, v := range []int64{7, 2, 9} {
		m.AddEdge(0, k+1, 1, -v)
		m.AddEdge(k+1, 4, 1, 0)
	}
	// Slot capacity via a bottleneck: widen sink edges through node 4.
	mm := NewMCMF(6)
	for k, v := range []int64{7, 2, 9} {
		mm.AddEdge(0, k+1, 1, -v)
		mm.AddEdge(k+1, 4, 1, 0)
	}
	mm.AddEdge(4, 5, 2, 0)
	flow, benefit := mm.MaxBenefit(0, 5)
	if flow != 2 || benefit != 16 {
		t.Errorf("flow=%d benefit=%d, want 2, 16", flow, benefit)
	}
	_ = m
}

func TestMCMFStopsWhenUnprofitable(t *testing.T) {
	// A positive-cost path must not be taken in MaxBenefit mode.
	m := NewMCMF(2)
	m.AddEdge(0, 1, 5, 3)
	flow, benefit := m.MaxBenefit(0, 1)
	if flow != 0 || benefit != 0 {
		t.Errorf("took unprofitable path: flow=%d benefit=%d", flow, benefit)
	}
}

func TestMCMFMinCostMaxFlow(t *testing.T) {
	// Max flow is forced even at positive cost.
	m := NewMCMF(3)
	m.AddEdge(0, 1, 2, 1)
	m.AddEdge(1, 2, 2, 2)
	flow, cost := m.MinCostMaxFlow(0, 2)
	if flow != 2 || cost != 6 {
		t.Errorf("flow=%d cost=%d, want 2, 6", flow, cost)
	}
}

func TestMCMFPrefersCheaperPath(t *testing.T) {
	m := NewMCMF(4)
	m.AddEdge(0, 1, 1, 1)
	m.AddEdge(0, 2, 1, 5)
	m.AddEdge(1, 3, 1, 1)
	m.AddEdge(2, 3, 1, 1)
	flow, cost := m.MinCostMaxFlow(0, 3)
	if flow != 2 || cost != 8 {
		t.Errorf("flow=%d cost=%d, want 2, 8", flow, cost)
	}
}

// bruteBestSelection enumerates subsets of items (value, slot) with at most
// cap items per slot and returns maximum value — a reference for the
// knapsack-like MCMF usage.
func bruteBestSelection(values []int64, slotOf []int, slots int, perSlot int) int64 {
	n := len(values)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		cnt := make([]int, slots)
		var sum int64
		ok := true
		for k := 0; k < n && ok; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			cnt[slotOf[k]]++
			if cnt[slotOf[k]] > perSlot {
				ok = false
			}
			sum += values[k]
		}
		if ok && sum > best {
			best = sum
		}
	}
	return best
}

// TestSolverReuseMatchesFresh rebuilds different graphs on one reused
// solver and checks each solve matches a fresh solver's: Reset must leave
// no residue (stale edges, potentials, heap state) behind.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMCMF(1)
	for round := 0; round < 60; round++ {
		n := rng.Intn(7) + 2
		edges := randomNetwork(rng, n, rng.Intn(18))
		// The random network (which may contain cycles) carries
		// non-negative costs; negative costs ride a fresh source node's
		// selection edges only, mirroring the packet-admission usage the
		// solver is specified for (no negative cycles).
		src := n
		m.Reset(n + 1)
		freshM := NewMCMF(n + 1)
		for _, e := range edges {
			cost := rng.Int63n(6)
			m.AddEdge(e.u, e.v, e.c, cost)
			freshM.AddEdge(e.u, e.v, e.c, cost)
		}
		for k := 0; k < rng.Intn(4)+1; k++ {
			v, value := rng.Intn(n), rng.Int63n(9)+1
			m.AddEdge(src, v, 1, -value)
			freshM.AddEdge(src, v, 1, -value)
		}
		gf, gb := m.MaxBenefit(src, n-1)
		wf, wb := freshM.MaxBenefit(src, n-1)
		if gf != wf || gb != wb {
			t.Fatalf("round %d: reused MCMF (%d,%d) != fresh (%d,%d)", round, gf, gb, wf, wb)
		}
	}
}

// TestSolverZeroAllocsSteadyState pins the solver-object contract: a
// rebuild-and-solve cycle over a same-shaped graph allocates nothing once
// the arrays are warm.
func TestSolverZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edges := randomNetwork(rng, 12, 40)
	m := NewMCMF(1)
	solveM := func() {
		m.Reset(13)
		for k, e := range edges {
			m.AddEdge(e.u, e.v, e.c, int64(k%4))
		}
		for v := 0; v < 6; v++ {
			m.AddEdge(12, v, 1, -int64(v+1))
		}
		m.MaxBenefit(12, 11)
	}
	solveM()
	if allocs := testing.AllocsPerRun(32, solveM); allocs != 0 {
		t.Errorf("reused MCMFSolver allocates %.1f/cycle, want 0", allocs)
	}
}

// TestMCMFMatchesBruteForceAssignment models a tiny assignment problem:
// items pick their fixed slot, each slot holds at most one item.
func TestMCMFMatchesBruteForceAssignment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		slots := rng.Intn(4) + 1
		values := make([]int64, n)
		slotOf := make([]int, n)
		for k := range values {
			values[k] = int64(rng.Intn(20) + 1)
			slotOf[k] = rng.Intn(slots)
		}
		// Network: S -> item (cap 1, cost -v), item -> slot, slot -> T (cap 1).
		m := NewMCMF(2 + n + slots)
		for k := 0; k < n; k++ {
			m.AddEdge(0, 2+k, 1, -values[k])
			m.AddEdge(2+k, 2+n+slotOf[k], 1, 0)
		}
		for s := 0; s < slots; s++ {
			m.AddEdge(2+n+s, 1, 1, 0)
		}
		_, benefit := m.MaxBenefit(0, 1)
		return benefit == bruteBestSelection(values, slotOf, slots, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
