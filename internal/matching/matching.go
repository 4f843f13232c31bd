package matching

import "sort"

// Edge is a candidate pairing between left vertex U and right vertex V with
// weight W. Unit-value engines ignore W.
type Edge struct {
	U, V int
	W    int64
}

// GreedyMaximal scans the edges in the order given and adds each edge whose
// endpoints are both unmatched, producing an (inclusion-)maximal matching.
// Complexity O(E). The scan order is the caller's tie-breaking policy.
func GreedyMaximal(nU, nV int, edges []Edge) []Edge {
	usedU := make([]bool, nU)
	usedV := make([]bool, nV)
	var out []Edge
	for _, e := range edges {
		if !usedU[e.U] && !usedV[e.V] {
			usedU[e.U] = true
			usedV[e.V] = true
			out = append(out, e)
		}
	}
	return out
}

// Matcher is a reusable greedy-maximal matcher. It keeps epoch-stamped
// vertex marks and the output buffer alive across scheduling cycles, so
// the per-cycle cost is a pure O(E) pass with no allocation after
// warm-up. The zero value is ready to use.
type Matcher struct {
	markU, markV []int
	epoch        int
	out          []Edge
}

// GreedyMaximal computes the same matching as the package-level
// GreedyMaximal. The returned slice is scratch, valid until the next call.
func (mt *Matcher) GreedyMaximal(nU, nV int, edges []Edge) []Edge {
	if len(mt.markU) < nU || len(mt.markV) < nV {
		// Grow both sides together: a fresh zeroed array next to a
		// surviving one with stale stamps would collide with the
		// restarted epoch counter.
		mt.markU = make([]int, nU)
		mt.markV = make([]int, nV)
		mt.epoch = 0
	}
	mt.epoch++
	mt.out = mt.out[:0]
	for _, e := range edges {
		if mt.markU[e.U] != mt.epoch && mt.markV[e.V] != mt.epoch {
			mt.markU[e.U] = mt.epoch
			mt.markV[e.V] = mt.epoch
			mt.out = append(mt.out, e)
		}
	}
	return mt.out
}

// WeightedScheduler is a reusable greedy-maximal-weighted matcher. It
// keeps the radix-sort scratch buffers alive across scheduling cycles, the
// way a real switch scheduler would, so the per-cycle cost is a pure
// O(E) pass with no allocation. The zero value is ready to use.
//
// The hot path packs (weight desc, U asc, V asc) into one uint64 key and
// LSD-radix-sorts; out-of-range weights (>= 2^40) or ports (>= 4096) fall
// back to a comparison sort.
type WeightedScheduler struct {
	keys, tmp []uint64
	sorted    []Edge
	counts    []int32
	mt        Matcher
}

// GreedyMaximalWeighted sorts the edges by weight descending (ties: smaller
// U, then smaller V first — a fixed, deterministic order) and then greedily
// adds non-conflicting edges. This is the engine of the paper's PG
// algorithm. The classical guarantee is that the result has at least half
// the weight of a maximum-weight matching. The input slice is not
// modified; the returned slice is scratch, valid until the next call.
func (s *WeightedScheduler) GreedyMaximalWeighted(nU, nV int, edges []Edge) []Edge {
	if sorted, ok := s.countingSortEdges(edges); ok {
		return s.mt.GreedyMaximal(nU, nV, sorted)
	}
	if sorted, ok := s.radixSortEdges(edges); ok {
		return s.mt.GreedyMaximal(nU, nV, sorted)
	}
	s.sorted = append(s.sorted[:0], edges...)
	sort.Sort(edgesByWeight(s.sorted))
	return s.mt.GreedyMaximal(nU, nV, s.sorted)
}

// countingMaxWeight bounds the weight range of the counting-sort fast
// path; the count array is reused scratch of this size at most.
const countingMaxWeight = 2048

// countingSortEdges is the fastest sorting path: when the caller already
// enumerates edges in (U, V) ascending order — as every policy driven by
// the bitset occupancy index does — and weights are small non-negative
// integers, a single stable counting pass by weight descending yields
// exactly the contract order (weight desc, ties U asc then V asc).
func (s *WeightedScheduler) countingSortEdges(edges []Edge) ([]Edge, bool) {
	n := len(edges)
	if n == 0 {
		return edges, true
	}
	maxW := int64(0)
	for i, e := range edges {
		if e.W < 0 || e.W > countingMaxWeight {
			return nil, false
		}
		if i > 0 {
			if p := edges[i-1]; p.U > e.U || (p.U == e.U && p.V >= e.V) {
				return nil, false
			}
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	if cap(s.counts) < int(maxW)+1 {
		s.counts = make([]int32, maxW+1)
	}
	cnt := s.counts[:maxW+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, e := range edges {
		cnt[e.W]++
	}
	// Prefix offsets with heavier weights first.
	total := int32(0)
	for w := maxW; w >= 0; w-- {
		c := cnt[w]
		cnt[w] = total
		total += c
	}
	if cap(s.sorted) < n {
		s.sorted = make([]Edge, n)
	}
	out := s.sorted[:n]
	for _, e := range edges {
		out[cnt[e.W]] = e
		cnt[e.W]++
	}
	return out, true
}

// Key layout for the radix path: 40 bits of weight, then 12 bits of
// complemented U and 12 bits of complemented V. Keys are sorted ascending
// and read back in reverse, which yields weight descending with (U, V)
// ascending tie-breaks. Leaving the weight un-complemented keeps the high
// key bytes zero for typical packet values, so the corresponding radix
// passes are skipped entirely.
const (
	radixMaxWeight = int64(1)<<40 - 1
	radixMaxPort   = 1 << 12
)

func (s *WeightedScheduler) radixSortEdges(edges []Edge) ([]Edge, bool) {
	n := len(edges)
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.tmp = make([]uint64, n)
	}
	keys, tmp := s.keys[:n], s.tmp[:n]
	var maxKey uint64
	for i, e := range edges {
		if e.W < 0 || e.W > radixMaxWeight || e.U >= radixMaxPort || e.V >= radixMaxPort || e.U < 0 || e.V < 0 {
			return nil, false
		}
		u := uint64(radixMaxPort - 1 - e.U)
		v := uint64(radixMaxPort - 1 - e.V)
		k := uint64(e.W)<<24 | u<<12 | v
		keys[i] = k
		if k > maxKey {
			maxKey = k
		}
	}
	// LSD radix sort, 8-bit digits, only over the significant bytes
	// (typical packet values keep the high weight bytes zero).
	var count [256]int
	for shift := 0; maxKey>>shift > 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range keys {
			count[(k>>shift)&0xFF]++
		}
		total := 0
		for i := range count {
			c := count[i]
			count[i] = total
			total += c
		}
		for _, k := range keys {
			d := (k >> shift) & 0xFF
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	s.keys, s.tmp = keys, tmp // keep ownership straight after swaps
	if cap(s.sorted) < n {
		s.sorted = make([]Edge, n)
	}
	out := s.sorted[:n]
	for i := range keys {
		k := keys[n-1-i] // reverse: weight descending
		u := radixMaxPort - 1 - int(k>>12)&(radixMaxPort-1)
		v := radixMaxPort - 1 - int(k)&(radixMaxPort-1)
		out[i] = Edge{U: u, V: v, W: int64(k >> 24)}
	}
	return out, true
}

// edgesByWeight orders edges by weight descending, ties by (U, V)
// ascending. A concrete sort.Interface implementation avoids the
// reflection overhead of sort.Slice in the scheduler's hot path (the sort
// runs once per scheduling cycle).
type edgesByWeight []Edge

func (e edgesByWeight) Len() int { return len(e) }
func (e edgesByWeight) Less(a, b int) bool {
	if e[a].W != e[b].W {
		return e[a].W > e[b].W
	}
	if e[a].U != e[b].U {
		return e[a].U < e[b].U
	}
	return e[a].V < e[b].V
}
func (e edgesByWeight) Swap(a, b int) { e[a], e[b] = e[b], e[a] }
