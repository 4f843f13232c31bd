package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randGraph(rng *rand.Rand, nU, nV, maxEdges int, maxW int64) []Edge {
	n := rng.Intn(maxEdges + 1)
	edges := make([]Edge, 0, n)
	seen := map[[2]int]bool{}
	for k := 0; k < n; k++ {
		e := Edge{U: rng.Intn(nU), V: rng.Intn(nV), W: 1}
		if maxW > 1 {
			e.W = 1 + rng.Int63n(maxW)
		}
		if seen[[2]int{e.U, e.V}] {
			continue
		}
		seen[[2]int{e.U, e.V}] = true
		edges = append(edges, e)
	}
	return edges
}

func TestGreedyMaximalBasics(t *testing.T) {
	edges := []Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 1}}
	m := GreedyMaximal(2, 2, edges)
	if len(m) != 2 {
		t.Fatalf("greedy found %d edges, want 2", len(m))
	}
	if err := isMatching(2, 2, m); err != nil {
		t.Fatal(err)
	}
	if !isMaximal(2, 2, edges, m) {
		t.Error("greedy result not maximal")
	}
	// First edge in scan order must be taken.
	if m[0] != edges[0] {
		t.Errorf("greedy skipped the first edge: %v", m)
	}
}

func TestGreedyMaximalEmpty(t *testing.T) {
	if m := GreedyMaximal(3, 3, nil); len(m) != 0 {
		t.Errorf("empty edge set produced matching %v", m)
	}
}

func TestGreedyMaximalIsAlwaysMaximalAndValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU, nV := rng.Intn(6)+1, rng.Intn(6)+1
		edges := randGraph(rng, nU, nV, 14, 1)
		m := GreedyMaximal(nU, nV, edges)
		return isMatching(nU, nV, m) == nil && isMaximal(nU, nV, edges, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMaximalAtLeastHalfOfMaximum(t *testing.T) {
	// Classical guarantee: any maximal matching has at least half the
	// edges of a maximum matching.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU, nV := rng.Intn(5)+1, rng.Intn(5)+1
		edges := randGraph(rng, nU, nV, 12, 1)
		m := GreedyMaximal(nU, nV, edges)
		maxSize := bruteForceMax(nU, nV, edges)
		return 2*len(m) >= maxSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyWeightedSortsDescending(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 0, W: 1},
		{U: 0, V: 1, W: 10},
		{U: 1, V: 1, W: 5},
		{U: 1, V: 0, W: 7},
	}
	m := new(WeightedScheduler).GreedyMaximalWeighted(2, 2, edges)
	if Weight(m) != 17 { // picks (0,1,10) then (1,0,7)
		t.Fatalf("weighted greedy weight %d, want 17: %v", Weight(m), m)
	}
	// Input order must be preserved (no mutation).
	if edges[0].W != 1 || edges[1].W != 10 {
		t.Error("GreedyMaximalWeighted mutated its input")
	}
}

func TestGreedyWeightedDeterministicTieBreak(t *testing.T) {
	edges := []Edge{
		{U: 1, V: 0, W: 5},
		{U: 0, V: 1, W: 5},
		{U: 0, V: 0, W: 5},
		{U: 1, V: 1, W: 5},
	}
	a := new(WeightedScheduler).GreedyMaximalWeighted(2, 2, edges)
	// Ties break by (U asc, V asc): (0,0) first, then (1,1).
	if len(a) != 2 || a[0].U != 0 || a[0].V != 0 || a[1].U != 1 || a[1].V != 1 {
		t.Errorf("tie-break order wrong: %v", a)
	}
}

func TestGreedyWeightedAtLeastHalfOptimal(t *testing.T) {
	// Classical guarantee: greedy-by-weight achieves >= 1/2 of the
	// maximum weight matching.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU, nV := rng.Intn(5)+1, rng.Intn(5)+1
		edges := randGraph(rng, nU, nV, 12, 50)
		m := new(WeightedScheduler).GreedyMaximalWeighted(nU, nV, edges)
		opt := bruteForceMaxWeight(nU, nV, edges)
		return 2*Weight(m) >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIsMatchingRejects(t *testing.T) {
	if err := isMatching(2, 2, []Edge{{U: 0, V: 0}, {U: 0, V: 1}}); err == nil {
		t.Error("duplicate left endpoint accepted")
	}
	if err := isMatching(2, 2, []Edge{{U: 0, V: 1}, {U: 1, V: 1}}); err == nil {
		t.Error("duplicate right endpoint accepted")
	}
	if err := isMatching(2, 2, []Edge{{U: 5, V: 0}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestHopcroftKarpKnownGraphs(t *testing.T) {
	tests := []struct {
		name  string
		nU    int
		nV    int
		edges []Edge
		want  int
	}{
		{"perfect 3x3", 3, 3, []Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2}}, 3},
		{"star", 3, 3, []Edge{{U: 0, V: 0}, {U: 1, V: 0}, {U: 2, V: 0}}, 1},
		{"augmenting path needed", 2, 2, []Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}}, 2},
		{"empty", 2, 2, nil, 0},
		{"rectangular", 2, 4, []Edge{{U: 0, V: 3}, {U: 1, V: 3}, {U: 1, V: 0}}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, size := HopcroftKarp(tc.nU, tc.nV, AdjFromEdges(tc.nU, tc.edges))
			if size != tc.want {
				t.Errorf("HK size %d, want %d", size, tc.want)
			}
		})
	}
}

func TestHopcroftKarpMatchesKuhnAndBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU, nV := rng.Intn(6)+1, rng.Intn(6)+1
		edges := randGraph(rng, nU, nV, 14, 1)
		adj := AdjFromEdges(nU, edges)
		matchU, hk := HopcroftKarp(nU, nV, adj)
		_, kuhn := kuhn(nU, nV, adj)
		bf := bruteForceMax(nU, nV, edges)
		// Also verify matchU is a consistent matching.
		seen := map[int]bool{}
		count := 0
		for _, v := range matchU {
			if v >= 0 {
				if seen[v] {
					return false
				}
				seen[v] = true
				count++
			}
		}
		return hk == kuhn && hk == bf && count == hk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHungarianKnownCases(t *testing.T) {
	tests := []struct {
		name string
		w    [][]int64
		want int64
	}{
		{"diagonal best", [][]int64{{10, 1}, {1, 10}}, 20},
		{"anti-diagonal best", [][]int64{{1, 10}, {10, 1}}, 20},
		{"conflict", [][]int64{{10, 9}, {10, 1}}, 19},
		{"single", [][]int64{{7}}, 7},
		{"rect wide", [][]int64{{1, 5, 3}}, 5},
		{"rect tall", [][]int64{{1}, {5}, {3}}, 5},
		{"zeros mean unmatched", [][]int64{{0, 0}, {0, 0}}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := Hungarian(tc.w)
			if Weight(m) != tc.want {
				t.Errorf("Hungarian weight %d, want %d (%v)", Weight(m), tc.want, m)
			}
			if err := isMatching(len(tc.w), len(tc.w[0]), m); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMaxWeightMatchingMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nU, nV := rng.Intn(5)+1, rng.Intn(5)+1
		edges := randGraph(rng, nU, nV, 12, 40)
		m := maxWeightMatching(nU, nV, edges)
		if isMatching(nU, nV, m) != nil {
			return false
		}
		return Weight(m) == bruteForceMaxWeight(nU, nV, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxWeightMatchingEmpty(t *testing.T) {
	if m := maxWeightMatching(3, 3, nil); len(m) != 0 {
		t.Errorf("empty graph produced %v", m)
	}
}

// Weight sums the edge weights of a matching.
func Weight(m []Edge) int64 {
	var w int64
	for _, e := range m {
		w += e.W
	}
	return w
}

func TestWeight(t *testing.T) {
	if Weight([]Edge{{W: 3}, {W: 4}}) != 7 {
		t.Error("Weight sum wrong")
	}
	if Weight(nil) != 0 {
		t.Error("Weight(nil) != 0")
	}
}

// TestMatcherReuseAcrossGraphSizes guards the scratch-growth path: when a
// reused Matcher sees a graph that grows on one side only, the freshly
// zeroed mark array must not collide with stale epoch stamps on the
// surviving side (a bug caught in review: edges were silently dropped).
func TestMatcherReuseAcrossGraphSizes(t *testing.T) {
	var mt Matcher
	small := []Edge{{U: 0, V: 0}, {U: 1, V: 1}}
	for k := 0; k < 3; k++ {
		if got := mt.GreedyMaximal(4, 4, small); len(got) != 2 {
			t.Fatalf("warm-up %d: got %d edges, want 2", k, len(got))
		}
	}
	// Grow U only; V keeps its old array with stamps from the warm-ups.
	big := []Edge{{U: 5, V: 0}, {U: 6, V: 1}}
	if got := mt.GreedyMaximal(8, 4, big); len(got) != 2 {
		t.Fatalf("after one-sided growth: got %d edges, want 2 (stale epoch stamps)", len(got))
	}
	// And shrink again — results must match the one-shot function.
	for k := 0; k < 3; k++ {
		got := mt.GreedyMaximal(4, 4, small)
		want := GreedyMaximal(4, 4, small)
		if len(got) != len(want) {
			t.Fatalf("after shrink, round %d: got %d edges, want %d", k, len(got), len(want))
		}
	}
}

// TestHungarianSolverReuseMatchesOneShot drives one solver across many
// random graphs of varying geometry and checks every result against a
// fresh one-shot solve: reused scratch must never leak state between
// calls.
func TestHungarianSolverReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var h HungarianSolver
	for k := 0; k < 200; k++ {
		nU := rng.Intn(6) + 1
		nV := rng.Intn(6) + 1
		edges := randGraph(rng, nU, nV, nU*nV, 40)
		got := h.MaxWeightMatching(nU, nV, edges)
		want := maxWeightMatching(nU, nV, edges)
		if len(got) != len(want) {
			t.Fatalf("iter %d (%dx%d): reused solver found %d edges, one-shot %d", k, nU, nV, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d (%dx%d): edge %d mismatch: %+v vs %+v", k, nU, nV, i, got[i], want[i])
			}
		}
	}
}

// TestHungarianSolverSteadyStateZeroAllocs pins the reusable-scratch
// contract: once warm, maximum-weight solves allocate nothing.
func TestHungarianSolverSteadyStateZeroAllocs(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(5))
	graphs := make([][]Edge, 8)
	for g := range graphs {
		graphs[g] = randGraph(rng, n, n, n*n/2, 100)
		if len(graphs[g]) == 0 {
			graphs[g] = []Edge{{U: 0, V: 0, W: 1}}
		}
	}
	var h HungarianSolver
	for _, g := range graphs { // warm-up to high-water scratch sizes
		h.MaxWeightMatching(n, n, g)
	}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		h.MaxWeightMatching(n, n, graphs[k%len(graphs)])
		k++
	}); allocs != 0 {
		t.Errorf("HungarianSolver: %v allocs/solve in steady state, want 0", allocs)
	}
}
