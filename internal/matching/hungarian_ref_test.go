package matching

import (
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/scratch"
)

// hungarianReference is HungarianSolver as it was before the lazy dual
// offset: every step of a row's augmentation scans all m columns behind a
// used []bool, then makes a second pass over them to subtract the step's
// delta from each free minimum and add it to each used potential. Solve's
// body is kept verbatim; the production solver must reproduce its edges,
// not just its weight, on every matrix.
type hungarianReference struct {
	u, v   []int64 // potentials
	minv   []int64
	p, way []int
	used   []bool
	wt     [][]int64 // transposed-input scratch
	wtrows []int64
	out    []Edge
}

func (h *hungarianReference) Solve(w [][]int64) []Edge {
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

// hungarianMatrix is an nU x nV matrix with each entry nonzero with
// probability density, drawn from [1, maxW].
func hungarianMatrix(rng *rand.Rand, nU, nV int, density float64, maxW int64) [][]int64 {
	w := make([][]int64, nU)
	for i := range w {
		w[i] = make([]int64, nV)
		for j := range w[i] {
			if rng.Float64() < density {
				w[i][j] = 1 + rng.Int63n(maxW)
			}
		}
	}
	return w
}

// checkHungarianTrajectory solves w on the production solver and the
// reference, fresh and reused, and requires identical edge lists.
func checkHungarianTrajectory(t *testing.T, h *HungarianSolver, ref *hungarianReference, w [][]int64) {
	t.Helper()
	var freshH HungarianSolver
	var freshRef hungarianReference
	if got, want := freshH.Solve(w), freshRef.Solve(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh solver: %v, reference %v\nw=%v", got, want, w)
	}
	if got, want := h.Solve(w), ref.Solve(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused solver: %v, reference %v\nw=%v", got, want, w)
	}
}

// TestHungarianMatchesReferenceEdgeForEdge pins the lazy-offset solver to
// the reference's trajectory: the same edges, in the same order, on
// square, rectangular and transposed (n > m) matrices, on all-zero and
// one-row/one-column matrices, and on tie-heavy values in {1, 2}, where
// the lowest-column tie-break decides which optimum comes out.
func TestHungarianMatchesReferenceEdgeForEdge(t *testing.T) {
	var h HungarianSolver
	var ref hungarianReference
	rng := rand.New(rand.NewSource(40))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {5, 3}, {8, 8}, {16, 16}, {9, 31}, {31, 9}, {64, 64}}
	for _, sh := range shapes {
		nU, nV := sh[0], sh[1]
		checkHungarianTrajectory(t, &h, &ref, hungarianMatrix(rng, nU, nV, 0, 1)) // all zero
		for _, density := range []float64{0.1, 0.3, 0.5, 1} {
			for _, maxW := range []int64{1, 2, 100, 1 << 40} {
				for rep := 0; rep < 3; rep++ {
					checkHungarianTrajectory(t, &h, &ref, hungarianMatrix(rng, nU, nV, density, maxW))
				}
			}
		}
	}
	// A reused solver shrinking and growing between shapes.
	for k := 0; k < 200; k++ {
		nU, nV := 1+rng.Intn(20), 1+rng.Intn(20)
		checkHungarianTrajectory(t, &h, &ref, hungarianMatrix(rng, nU, nV, rng.Float64(), 1+rng.Int63n(3)))
	}
}

// FuzzHungarianTrajectory fuzzes the edge-for-edge check over dimensions
// up to 70, density and value range. It runs as a 30s CI smoke.
func FuzzHungarianTrajectory(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(77), uint16(100))
	f.Add(int64(2), uint8(3), uint8(40), uint8(255), uint16(2))
	f.Add(int64(3), uint8(70), uint8(5), uint8(30), uint16(1))
	f.Add(int64(4), uint8(64), uint8(64), uint8(128), uint16(2))
	f.Add(int64(5), uint8(1), uint8(1), uint8(0), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, nU, nV, density uint8, maxW uint16) {
		rng := rand.New(rand.NewSource(seed))
		w := hungarianMatrix(rng, 1+int(nU)%70, 1+int(nV)%70, float64(density)/255, 1+int64(maxW))
		var h HungarianSolver
		var ref hungarianReference
		checkHungarianTrajectory(t, &h, &ref, w)
	})
}
