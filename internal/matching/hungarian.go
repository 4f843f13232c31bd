package matching

import "qswitch/internal/scratch"

// HungarianSolver solves rectangular assignment problems with reusable
// scratch, mirroring HKMatcher: a zero value is ready to use, and a
// solver kept across scheduling cycles reaches a steady state where
// solving allocates nothing. The returned edge slice is scratch owned by
// the solver, valid until the next call — callers that retain results
// must copy them (the simulation engines consume transfers before the
// next policy call, so policies hand the slice straight through).
type HungarianSolver struct {
	u, v   []int64 // potentials
	minv   []int64
	p, way []int
	used   []bool
	w      [][]int64 // dense weight scratch (MaxWeightMatching)
	wrows  []int64   // backing storage for w
	wt     [][]int64 // transposed-input scratch
	wtrows []int64
	out    []Edge
}

// Solve finds an assignment of left to right vertices maximizing total
// weight for an nU x nV matrix w (weights >= 0), leaving vertices
// unassigned where that is better (missing edges have weight 0 and
// zero-weight assignments are dropped from the result).
//
// This is the engine behind the maximum-weight-matching baseline (KR-MWM,
// the 6-competitive predecessor of PG). Complexity O(n^2 m) with the
// classical potentials formulation (Jonker–Volgenant style row-by-row
// augmentation, adapted to maximization by negating weights).
func (h *HungarianSolver) Solve(w [][]int64) []Edge {
	nU := len(w)
	if nU == 0 {
		return nil
	}
	nV := len(w[0])
	// The potentials formulation solves min-cost perfect assignment on a
	// square matrix with rows <= cols; transpose as needed and use
	// cost = -weight.
	n := nU
	m := nV
	transposed := false
	if n > m {
		h.wt, h.wtrows = growMatrix(h.wt, h.wtrows, m, n)
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				h.wt[j][i] = w[i][j]
			}
		}
		w = h.wt[:m]
		n, m = m, n
		transposed = true
	}
	const inf = int64(1) << 62
	// u, v are potentials; p[j] = row matched to column j (1-based
	// internal indexing with a virtual column 0).
	h.u = scratch.Grow(h.u, n+1)
	h.v = scratch.Grow(h.v, m+1)
	h.minv = scratch.Grow(h.minv, m+1)
	h.p = scratch.Grow(h.p, m+1)
	h.way = scratch.Grow(h.way, m+1)
	h.used = scratch.Grow(h.used, m+1)
	u, v, p, way := h.u, h.v, h.p, h.way
	for j := 0; j <= m; j++ {
		v[j] = 0
		p[j] = 0
		way[j] = 0
	}
	for i := 0; i <= n; i++ {
		u[i] = 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv, used := h.minv, h.used
		for j := 0; j <= m; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			var delta int64 = inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				// cost(i0, j) = -w[i0-1][j-1]; maximization via negation.
				cur := -w[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	h.out = h.out[:0]
	for j := 1; j <= m; j++ {
		i := p[j]
		if i == 0 {
			continue
		}
		var e Edge
		if transposed {
			e = Edge{U: j - 1, V: i - 1, W: w[i-1][j-1]}
		} else {
			e = Edge{U: i - 1, V: j - 1, W: w[i-1][j-1]}
		}
		if e.W > 0 { // zero-weight pairings are "unmatched" in our model
			h.out = append(h.out, e)
		}
	}
	return h.out
}

// MaxWeightMatching finds a maximum-weight bipartite matching for an edge
// list with non-negative weights, via Solve on the induced dense matrix.
// Vertices absent from any edge contribute nothing. The result aliases
// solver scratch; see the type comment.
func (h *HungarianSolver) MaxWeightMatching(nU, nV int, edges []Edge) []Edge {
	if len(edges) == 0 {
		return nil
	}
	h.w, h.wrows = growMatrix(h.w, h.wrows, nU, nV)
	for i := 0; i < nU; i++ {
		row := h.w[i]
		for j := 0; j < nV; j++ {
			row[j] = 0
		}
	}
	for _, e := range edges {
		if e.W > h.w[e.U][e.V] {
			h.w[e.U][e.V] = e.W
		}
	}
	return h.Solve(h.w[:nU])
}

// Hungarian is the one-shot convenience wrapper around HungarianSolver.
func Hungarian(w [][]int64) []Edge {
	var h HungarianSolver
	return h.Solve(w)
}

// growMatrix returns a rows x cols matrix reusing prior backing storage
// when large enough. Contents are unspecified; callers overwrite.
func growMatrix(m [][]int64, backing []int64, rows, cols int) ([][]int64, []int64) {
	if cap(backing) < rows*cols {
		backing = make([]int64, rows*cols)
	}
	backing = backing[:rows*cols]
	if cap(m) < rows {
		m = make([][]int64, rows)
	}
	m = m[:rows]
	for i := 0; i < rows; i++ {
		m[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m, backing
}
