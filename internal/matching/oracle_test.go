package matching

import "fmt"

// Test oracles: independent, deliberately naive implementations that the
// production engines are cross-checked against. None of them is fast, and
// none keeps scratch between calls.

// bruteForceMax returns the size of a maximum matching by exhaustive
// search. Exponential; small graphs only (len(edges) <= ~20).
func bruteForceMax(nU, nV int, edges []Edge) int {
	return int(bruteRec(nU, nV, edges, 0, make([]bool, nU), make([]bool, nV), func(Edge) int64 { return 1 }))
}

// bruteForceMaxWeight returns the weight of a maximum-weight matching by
// exhaustive search. Exponential; small graphs only.
func bruteForceMaxWeight(nU, nV int, edges []Edge) int64 {
	return bruteRec(nU, nV, edges, 0, make([]bool, nU), make([]bool, nV), func(e Edge) int64 { return e.W })
}

func bruteRec(nU, nV int, edges []Edge, k int, usedU, usedV []bool, gain func(Edge) int64) int64 {
	if k == len(edges) {
		return 0
	}
	// Skip edge k.
	best := bruteRec(nU, nV, edges, k+1, usedU, usedV, gain)
	e := edges[k]
	if !usedU[e.U] && !usedV[e.V] {
		usedU[e.U], usedV[e.V] = true, true
		if with := gain(e) + bruteRec(nU, nV, edges, k+1, usedU, usedV, gain); with > best {
			best = with
		}
		usedU[e.U], usedV[e.V] = false, false
	}
	return best
}

// kuhn computes a maximum-cardinality matching with the simple O(V*E)
// augmenting-path algorithm, an independent cross-check of HopcroftKarp.
func kuhn(nU, nV int, adj [][]int) (matchU []int, size int) {
	matchU = make([]int, nU)
	matchV := make([]int, nV)
	for i := range matchU {
		matchU[i] = -1
	}
	for i := range matchV {
		matchV[i] = -1
	}
	seen := make([]bool, nV)
	var try func(u int) bool
	try = func(u int) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if matchV[v] == -1 || try(matchV[v]) {
				matchU[u] = v
				matchV[v] = u
				return true
			}
		}
		return false
	}
	for u := 0; u < nU; u++ {
		for i := range seen {
			seen[i] = false
		}
		if try(u) {
			size++
		}
	}
	return matchU, size
}

// isMatching verifies the matching property: no two edges share a left or
// right endpoint and all endpoints are in range.
func isMatching(nU, nV int, edges []Edge) error {
	usedU := make([]bool, nU)
	usedV := make([]bool, nV)
	for _, e := range edges {
		if e.U < 0 || e.U >= nU || e.V < 0 || e.V >= nV {
			return fmt.Errorf("matching: edge (%d,%d) out of range %dx%d", e.U, e.V, nU, nV)
		}
		if usedU[e.U] {
			return fmt.Errorf("matching: left vertex %d matched twice", e.U)
		}
		if usedV[e.V] {
			return fmt.Errorf("matching: right vertex %d matched twice", e.V)
		}
		usedU[e.U] = true
		usedV[e.V] = true
	}
	return nil
}

// isMaximal reports whether m is maximal with respect to the candidate
// edge set: no candidate edge has both endpoints unmatched.
func isMaximal(nU, nV int, candidates, m []Edge) bool {
	usedU := make([]bool, nU)
	usedV := make([]bool, nV)
	for _, e := range m {
		usedU[e.U] = true
		usedV[e.V] = true
	}
	for _, e := range candidates {
		if !usedU[e.U] && !usedV[e.V] {
			return false
		}
	}
	return true
}

// maxWeightMatching is the one-shot wrapper around
// HungarianSolver.MaxWeightMatching.
func maxWeightMatching(nU, nV int, edges []Edge) []Edge {
	var h HungarianSolver
	return h.MaxWeightMatching(nU, nV, edges)
}
