package matching

// HopcroftKarp computes a maximum-cardinality bipartite matching in
// O(E sqrt(V)). adj[u] lists the right-side neighbors of left vertex u.
// It returns matchU (matchU[u] = matched right vertex or -1) and the
// matching size.
//
// This is the engine behind the Kesselman–Rosén-style unit-value baseline
// (KR-MM): prior CIOQ scheduling results compute a maximum matching in
// every scheduling cycle, which the paper replaces with the much cheaper
// greedy maximal matching at no loss in competitiveness.
func HopcroftKarp(nU, nV int, adj [][]int) (matchU []int, size int) {
	var h HKMatcher
	return h.MaxMatching(nU, nV, adj)
}

// HKMatcher is a reusable Hopcroft–Karp engine: its vertex arrays and
// BFS queue survive across scheduling cycles, so repeated calls allocate
// nothing after warm-up. The zero value is ready to use. The returned
// matchU slice is scratch, valid until the next call.
type HKMatcher struct {
	matchU, matchV []int
	dist, queue    []int
	adj            [][]int
}

const hkInf = int(^uint(0) >> 1)

// MaxMatching computes a maximum-cardinality matching of adj as
// HopcroftKarp does.
func (h *HKMatcher) MaxMatching(nU, nV int, adj [][]int) (matchU []int, size int) {
	if cap(h.matchU) < nU {
		h.matchU = make([]int, nU)
		h.dist = make([]int, nU)
		h.queue = make([]int, 0, nU)
	}
	if cap(h.matchV) < nV {
		h.matchV = make([]int, nV)
	}
	h.matchU = h.matchU[:nU]
	h.matchV = h.matchV[:nV]
	h.dist = h.dist[:nU]
	h.adj = adj
	for i := range h.matchU {
		h.matchU[i] = -1
	}
	for i := range h.matchV {
		h.matchV[i] = -1
	}
	for h.bfs() {
		for u := 0; u < nU; u++ {
			if h.matchU[u] == -1 && h.dfs(u) {
				size++
			}
		}
	}
	h.adj = nil
	return h.matchU, size
}

func (h *HKMatcher) bfs() bool {
	h.queue = h.queue[:0]
	for u := range h.matchU {
		if h.matchU[u] == -1 {
			h.dist[u] = 0
			h.queue = append(h.queue, u)
		} else {
			h.dist[u] = hkInf
		}
	}
	found := false
	for head := 0; head < len(h.queue); head++ {
		u := h.queue[head]
		for _, v := range h.adj[u] {
			w := h.matchV[v]
			if w == -1 {
				found = true
			} else if h.dist[w] == hkInf {
				h.dist[w] = h.dist[u] + 1
				h.queue = append(h.queue, w)
			}
		}
	}
	return found
}

func (h *HKMatcher) dfs(u int) bool {
	for _, v := range h.adj[u] {
		w := h.matchV[v]
		if w == -1 || (h.dist[w] == h.dist[u]+1 && h.dfs(w)) {
			h.matchU[u] = v
			h.matchV[v] = u
			return true
		}
	}
	h.dist[u] = hkInf
	return false
}

// AdjFromEdges converts an edge list to the adjacency-list form consumed by
// the maximum-matching engines, preserving edge order per vertex.
func AdjFromEdges(nU int, edges []Edge) [][]int {
	adj := make([][]int, nU)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
	}
	return adj
}
