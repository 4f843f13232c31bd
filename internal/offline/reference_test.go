package offline

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"qswitch/internal/packet"
	"qswitch/internal/scratch"
	"qswitch/internal/switchsim"
	"qswitch/internal/testkit/flow"
)

// The exact solvers as they stood before the packed-word rewrite: queue
// states as byte slices copied per recursion frame (unit) or cloned value
// multisets (weighted), a map[string]int64 memo, every matching of every
// state enumerated and no bound cut. Kept test-only as the reference the
// differential suite and FuzzExactEquivalence hold the production solvers
// to; the bodies are verbatim apart from the ref prefix on the three solver
// types and the dropped probe call (one RecordExactSolve per production
// solve is pinned elsewhere).

// unitEdge is one eligible transfer edge of a scheduling cycle.
type unitEdge struct{ i, j int32 }

// exactFrame is the per-recursion-depth scratch of the exact solvers.
// Depths are derived from (slot, cycle), which strictly increases down
// the recursion, so a frame's buffers stay live exactly for the subtree
// rooted at its call and can be reused across sibling explorations and
// across Solve calls.
type exactFrame struct {
	state   []byte
	key     []byte
	edges   []unitEdge
	usedIn  []bool
	usedOut []bool
}

// exactScratch is the storage shared by the reusable solver objects:
// frames indexed by recursion depth, the state-keyed memo (cleared but
// not discarded between Solves, retaining its buckets), and the root
// state buffer.
type exactScratch struct {
	memo   map[string]int64
	frames []exactFrame
	root   []byte
}

// frame returns the depth-d frame sized for the current instance.
func (s *exactScratch) frame(d, stateLen, n, m int) *exactFrame {
	for len(s.frames) <= d {
		s.frames = append(s.frames, exactFrame{})
	}
	fr := &s.frames[d]
	if cap(fr.state) < stateLen {
		fr.state = make([]byte, stateLen)
	}
	fr.state = fr.state[:stateLen]
	if cap(fr.usedIn) < n {
		fr.usedIn = make([]bool, n)
	}
	fr.usedIn = fr.usedIn[:n]
	if cap(fr.usedOut) < m {
		fr.usedOut = make([]bool, m)
	}
	fr.usedOut = fr.usedOut[:m]
	return fr
}

// reset prepares the scratch for a new instance, keeping capacity.
func (s *exactScratch) reset(stateLen int) []byte {
	if s.memo == nil {
		s.memo = make(map[string]int64, 1<<10)
	} else {
		clear(s.memo)
	}
	if cap(s.root) < stateLen {
		s.root = make([]byte, stateLen)
	}
	root := s.root[:stateLen]
	clear(root)
	return root
}

// refUnitCIOQSolver is a reusable exact-DP solver for unit-value CIOQ
// instances. The zero value is ready; Solve may be called repeatedly and
// reuses the memo buckets, recursion frames and state buffers across
// calls, so steady-state solving allocates only the retained memo
// entries. Not safe for concurrent use; ExactUnitCIOQ wraps a pool of
// these for the concurrent-judge case.
type refUnitCIOQSolver struct {
	cfg      switchsim.Config
	slots    int
	arrivals [][]packet.Packet
	exactScratch
}

// Solve computes the exact offline optimum benefit (= number of
// transmitted packets) for a unit-value CIOQ instance by dynamic
// programming over queue-length states.
//
// With unit values, packets in the same queue are interchangeable, so the
// vector of queue lengths is a sufficient state. The paper's WLOG
// reductions fix everything except the per-cycle matching choice: the
// optimum accepts whenever there is room, never preempts, and transmits
// from every non-empty output queue. The DP therefore branches only over
// all matchings (including non-maximal ones) of the eligibility graph in
// every scheduling cycle.
//
// Returns ErrTooLarge for instances beyond the tractability guards.
func (s *refUnitCIOQSolver) Solve(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	if err := cfg.Check(false); err != nil {
		return 0, err
	}
	if !seq.IsUnit() {
		return 0, fmt.Errorf("offline: ExactUnitCIOQ requires unit values")
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return 0, fmt.Errorf("offline: bad sequence: %w", err)
	}
	slots := cfg.HorizonFor(seq)
	if cfg.InputBuf > maxExactBuf || cfg.OutputBuf > maxExactBuf ||
		cfg.Speedup > maxExactSpeedup || slots > maxExactSlots ||
		unitStateEstimate(cfg, false) > maxExactStates {
		return 0, ErrTooLarge
	}
	s.cfg, s.slots = cfg, slots
	s.arrivals = seq.BySlot(slots)
	n, m := cfg.Inputs, cfg.Outputs
	root := s.reset(n*m + m) // iq lengths then oq lengths
	return s.slot(0, root)
}

// slot applies slot t's arrival phase and descends into its cycles. The
// caller owns state; it is copied into this depth's frame before any
// mutation.
func (s *refUnitCIOQSolver) slot(t int, state []byte) (int64, error) {
	if t == s.slots {
		return 0, nil
	}
	n, m := s.cfg.Inputs, s.cfg.Outputs
	fr := s.frame(t*(s.cfg.Speedup+2), len(state), n, m)
	st := fr.state
	copy(st, state)
	for _, p := range s.arrivals[t] {
		idx := p.In*m + p.Out
		if int(st[idx]) < s.cfg.InputBuf {
			st[idx]++ // greedy accept is WLOG-optimal for unit values
		}
	}
	return s.cycle(t, 0, st)
}

// cycle branches over all matchings for cycle c of slot t; after the last
// cycle it applies the (work-conserving) transmission phase.
func (s *refUnitCIOQSolver) cycle(t, c int, state []byte) (int64, error) {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	fr := s.frame(t*(s.cfg.Speedup+2)+1+c, len(state), n, m)
	if c == s.cfg.Speedup {
		// Transmission: one packet from every non-empty output queue.
		st := fr.state
		copy(st, state)
		var sent int64
		for j := 0; j < m; j++ {
			if st[n*m+j] > 0 {
				st[n*m+j]--
				sent++
			}
		}
		rest, err := s.slot(t+1, st)
		return sent + rest, err
	}
	// The string conversion in the index expression does not allocate;
	// only a memo store copies the key onto the heap.
	fr.key = append(append(fr.key[:0], byte(t), byte(c)), state...)
	if v, ok := s.memo[string(fr.key)]; ok {
		return v, nil
	}
	if len(s.memo) > memoCap {
		return 0, ErrTooLarge
	}
	// Eligible transfer edges at the start of this cycle.
	edges := fr.edges[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if state[i*m+j] > 0 && int(state[n*m+j]) < s.cfg.OutputBuf {
				edges = append(edges, unitEdge{int32(i), int32(j)})
			}
		}
	}
	fr.edges = edges
	clear(fr.usedIn)
	clear(fr.usedOut)
	copy(fr.state, state)
	best := int64(-1)
	if err := s.explore(t, c, 0, fr, &best); err != nil {
		return 0, err
	}
	s.memo[string(fr.key)] = best
	return best, nil
}

// explore enumerates matchings over fr.edges (skip or, endpoints free,
// take each edge), recursing into the next cycle at each leaf.
func (s *refUnitCIOQSolver) explore(t, c, k int, fr *exactFrame, best *int64) error {
	if k == len(fr.edges) {
		v, err := s.cycle(t, c+1, fr.state)
		if err != nil {
			return err
		}
		if v > *best {
			*best = v
		}
		return nil
	}
	// Skip edge k.
	if err := s.explore(t, c, k+1, fr, best); err != nil {
		return err
	}
	e := fr.edges[k]
	i, j := int(e.i), int(e.j)
	if !fr.usedIn[i] && !fr.usedOut[j] {
		n, m := s.cfg.Inputs, s.cfg.Outputs
		fr.usedIn[i], fr.usedOut[j] = true, true
		fr.state[i*m+j]--
		fr.state[n*m+j]++
		err := s.explore(t, c, k+1, fr, best)
		fr.state[i*m+j]++
		fr.state[n*m+j]--
		fr.usedIn[i], fr.usedOut[j] = false, false
		if err != nil {
			return err
		}
	}
	return nil
}

// refUnitCrossbarSolver is the buffered-crossbar counterpart of
// refUnitCIOQSolver: the crosspoint queue lengths join the state and each
// cycle enumerates the two scheduling subphases. The zero value is
// ready; not safe for concurrent use.
type refUnitCrossbarSolver struct {
	cfg      switchsim.Config
	slots    int
	arrivals [][]packet.Packet
	exactScratch
}

// Solve computes the exact offline optimum for a unit-value buffered
// crossbar instance, analogously to (*refUnitCIOQSolver).Solve but with the
// crosspoint queue lengths in the state and the two scheduling subphases
// enumerated per cycle: the input subphase picks, for each input port,
// one eligible queue (or none); the output subphase picks, for each
// output port, one eligible crosspoint queue (or none).
func (s *refUnitCrossbarSolver) Solve(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	if err := cfg.Check(true); err != nil {
		return 0, err
	}
	if !seq.IsUnit() {
		return 0, fmt.Errorf("offline: ExactUnitCrossbar requires unit values")
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return 0, fmt.Errorf("offline: bad sequence: %w", err)
	}
	slots := cfg.HorizonFor(seq)
	if cfg.InputBuf > maxExactBuf || cfg.OutputBuf > maxExactBuf || cfg.CrossBuf > maxExactBuf ||
		cfg.Speedup > maxExactSpeedup || slots > maxExactSlots ||
		unitStateEstimate(cfg, true) > maxExactStates {
		return 0, ErrTooLarge
	}
	s.cfg, s.slots = cfg, slots
	s.arrivals = seq.BySlot(slots)
	n, m := cfg.Inputs, cfg.Outputs
	// State layout: iq (n*m), xq (n*m), oq (m).
	root := s.reset(2*n*m + m)
	return s.slot(0, root)
}

func (s *refUnitCrossbarSolver) slot(t int, state []byte) (int64, error) {
	if t == s.slots {
		return 0, nil
	}
	n, m := s.cfg.Inputs, s.cfg.Outputs
	fr := s.frame(t*(s.cfg.Speedup+2), len(state), n, m)
	st := fr.state
	copy(st, state)
	for _, p := range s.arrivals[t] {
		idx := p.In*m + p.Out
		if int(st[idx]) < s.cfg.InputBuf {
			st[idx]++
		}
	}
	return s.cycle(t, 0, st)
}

func (s *refUnitCrossbarSolver) cycle(t, c int, state []byte) (int64, error) {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	fr := s.frame(t*(s.cfg.Speedup+2)+1+c, len(state), n, m)
	if c == s.cfg.Speedup {
		st := fr.state
		copy(st, state)
		var sent int64
		for j := 0; j < m; j++ {
			if st[2*n*m+j] > 0 {
				st[2*n*m+j]--
				sent++
			}
		}
		rest, err := s.slot(t+1, st)
		return sent + rest, err
	}
	fr.key = append(append(fr.key[:0], byte(t), byte(c)), state...)
	if v, ok := s.memo[string(fr.key)]; ok {
		return v, nil
	}
	if len(s.memo) > memoCap {
		return 0, ErrTooLarge
	}
	copy(fr.state, state)
	best := int64(-1)
	if err := s.inputRec(t, c, 0, fr, &best); err != nil {
		return 0, err
	}
	s.memo[string(fr.key)] = best
	return best, nil
}

// inputRec enumerates the input subphase: for each input, choose an
// eligible crosspoint queue to feed, or none.
func (s *refUnitCrossbarSolver) inputRec(t, c, i int, fr *exactFrame, best *int64) error {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	if i == n {
		return s.outputRec(t, c, 0, fr, best)
	}
	// Choice: no transfer from input i.
	if err := s.inputRec(t, c, i+1, fr, best); err != nil {
		return err
	}
	for j := 0; j < m; j++ {
		iq, xq := i*m+j, n*m+i*m+j
		if fr.state[iq] > 0 && int(fr.state[xq]) < s.cfg.CrossBuf {
			fr.state[iq]--
			fr.state[xq]++
			err := s.inputRec(t, c, i+1, fr, best)
			fr.state[iq]++
			fr.state[xq]--
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// outputRec enumerates the output subphase: for each output, choose an
// eligible crosspoint queue to drain, or none.
func (s *refUnitCrossbarSolver) outputRec(t, c, j int, fr *exactFrame, best *int64) error {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	if j == m {
		v, err := s.cycle(t, c+1, fr.state)
		if err != nil {
			return err
		}
		if v > *best {
			*best = v
		}
		return nil
	}
	if err := s.outputRec(t, c, j+1, fr, best); err != nil {
		return err
	}
	if int(fr.state[2*n*m+j]) < s.cfg.OutputBuf {
		for i := 0; i < n; i++ {
			xq := n*m + i*m + j
			if fr.state[xq] > 0 {
				fr.state[xq]--
				fr.state[2*n*m+j]++
				err := s.outputRec(t, c, j+1, fr, best)
				fr.state[xq]++
				fr.state[2*n*m+j]--
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// vset is a value multiset kept sorted descending (index 0 = maximum).
type vset []int64

func (v vset) insert(x int64) vset {
	pos := sort.Search(len(v), func(k int) bool { return v[k] < x })
	out := make(vset, 0, len(v)+1)
	out = append(out, v[:pos]...)
	out = append(out, x)
	out = append(out, v[pos:]...)
	return out
}

func (v vset) popHead() (int64, vset) { return v[0], append(vset(nil), v[1:]...) }

func (v vset) popTail() (int64, vset) {
	return v[len(v)-1], append(vset(nil), v[:len(v)-1]...)
}

// wState is the full queue state: per-queue value multisets.
type wState struct {
	iq []vset // n*m
	xq []vset // n*m (crossbar only, else nil)
	oq []vset // m
}

func newWState(n, m int, crossbar bool) *wState {
	st := &wState{iq: make([]vset, n*m), oq: make([]vset, m)}
	if crossbar {
		st.xq = make([]vset, n*m)
	}
	return st
}

func (st *wState) clone() *wState {
	out := &wState{iq: append([]vset(nil), st.iq...), oq: append([]vset(nil), st.oq...)}
	if st.xq != nil {
		out.xq = append([]vset(nil), st.xq...)
	}
	return out
}

// appendKey encodes the state compactly onto buf: fixed 8-byte
// little-endian values with 0xFF separators between queues.
func (st *wState) appendKey(buf []byte) []byte {
	var tmp [8]byte
	app := func(sets []vset) {
		for _, s := range sets {
			for _, v := range s {
				binary.LittleEndian.PutUint64(tmp[:], uint64(v))
				buf = append(buf, tmp[:]...)
			}
			buf = append(buf, 0xFF)
		}
	}
	app(st.iq)
	if st.xq != nil {
		app(st.xq)
	}
	app(st.oq)
	return buf
}

// refWeightedSolver is a reusable exact solver for micro weighted instances
// (CIOQ or buffered crossbar). The zero value is ready; SolveCIOQ and
// SolveCrossbar may be called repeatedly and reuse the memo buckets,
// per-depth edge lists, used-port flags and key buffers across calls.
// The multiset states themselves are still cloned along the search — at
// these micro sizes they are small, and persistent sharing of the vset
// spines keeps clones shallow. Not safe for concurrent use; the package
// functions wrap a pool of these.
type refWeightedSolver struct {
	cfg      switchsim.Config
	crossbar bool
	slots    int
	arrivals [][]packet.Packet
	exactScratch
}

// SolveCIOQ computes the exact offline optimum benefit of a micro
// weighted CIOQ instance by memoized search.
//
// The state is the multiset of packet values per queue. The paper's
// exchange arguments (Assumptions A1–A3 plus the standard preempt-the-
// minimum argument) let the search branch only over:
//
//   - admissions: reject, or accept (preempting the queue minimum if full
//     and strictly smaller than the arrival), and
//   - scheduling: every matching over the edges (i,j) where Q*_ij is
//     non-empty and Q*_j has room or its minimum is smaller than the head
//     of Q*_ij; matched edges always move the queue head (the maximum).
//
// Transmission is fixed: send the maximum of every non-empty output queue.
// Returns ErrTooLarge when the instance exceeds the guards.
func (s *refWeightedSolver) SolveCIOQ(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, false)
}

// SolveCrossbar is the buffered-crossbar counterpart of SolveCIOQ: the
// state additionally tracks crosspoint queue multisets, and each cycle
// branches over the input subphase (per input: one eligible queue or
// none) and the output subphase (per output: one eligible crosspoint
// queue or none).
func (s *refWeightedSolver) SolveCrossbar(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, true)
}

func (s *refWeightedSolver) solve(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	if err := cfg.Check(crossbar); err != nil {
		return 0, err
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return 0, fmt.Errorf("offline: bad sequence: %w", err)
	}
	slots := cfg.HorizonFor(seq)
	if cfg.Inputs > maxWPorts || cfg.Outputs > maxWPorts ||
		cfg.InputBuf > maxWBuf || cfg.OutputBuf > maxWBuf ||
		(crossbar && cfg.CrossBuf > maxWBuf) ||
		cfg.Speedup > maxWSpeedup || slots > maxWSlots || len(seq) > maxWPackets {
		return 0, ErrTooLarge
	}
	s.cfg, s.crossbar, s.slots = cfg, crossbar, slots
	s.arrivals = seq.BySlot(slots)
	s.reset(0)
	return s.slot(0, newWState(cfg.Inputs, cfg.Outputs, crossbar))
}

// slot branches over admission decisions for slot t's arrivals, then
// descends into the scheduling cycles.
func (s *refWeightedSolver) slot(t int, st *wState) (int64, error) {
	if t == s.slots {
		return 0, nil
	}
	return s.admit(t, 0, st)
}

func (s *refWeightedSolver) admit(t, k int, st *wState) (int64, error) {
	if k == len(s.arrivals[t]) {
		return s.cycle(t, 0, st)
	}
	p := s.arrivals[t][k]
	m := s.cfg.Outputs
	idx := p.In*m + p.Out
	q := st.iq[idx]
	if len(q) < s.cfg.InputBuf {
		// Room available: accepting weakly dominates rejecting (the
		// packet can always be preempted later), so do not branch.
		st2 := st.clone()
		st2.iq[idx] = q.insert(p.Value)
		return s.admit(t, k+1, st2)
	}
	// Full queue: branch between rejecting and, when profitable,
	// preempting the minimum.
	best, err := s.admit(t, k+1, st)
	if err != nil {
		return 0, err
	}
	if tail := q[len(q)-1]; tail < p.Value {
		st2 := st.clone()
		_, rest := q.popTail()
		st2.iq[idx] = rest.insert(p.Value)
		alt, err := s.admit(t, k+1, st2)
		if err != nil {
			return 0, err
		}
		if alt > best {
			best = alt
		}
	}
	return best, nil
}

// cycle branches over the scheduling decisions of cycle c; after the last
// cycle it applies the fixed transmission phase.
func (s *refWeightedSolver) cycle(t, c int, st *wState) (int64, error) {
	if c == s.cfg.Speedup {
		st2 := st.clone()
		var sent int64
		for j := range st2.oq {
			if len(st2.oq[j]) > 0 {
				var v int64
				v, st2.oq[j] = st2.oq[j].popHead()
				sent += v
			}
		}
		rest, err := s.slot(t+1, st2)
		return sent + rest, err
	}
	n, m := s.cfg.Inputs, s.cfg.Outputs
	fr := s.frame(t*s.cfg.Speedup+c, 0, n, m)
	fr.key = st.appendKey(append(fr.key[:0], byte(t), byte(c)))
	if v, ok := s.memo[string(fr.key)]; ok {
		return v, nil
	}
	if len(s.memo) > memoCap {
		return 0, ErrTooLarge
	}
	var best int64
	var err error
	if s.crossbar {
		best, err = s.xbarCycle(t, c, st)
	} else {
		best, err = s.cioqCycle(t, c, fr, st)
	}
	if err != nil {
		return 0, err
	}
	s.memo[string(fr.key)] = best
	return best, nil
}

// cioqCycle enumerates matchings over eligible (i,j) edges.
func (s *refWeightedSolver) cioqCycle(t, c int, fr *exactFrame, st *wState) (int64, error) {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	edges := fr.edges[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			q := st.iq[i*m+j]
			if len(q) == 0 {
				continue
			}
			oq := st.oq[j]
			if len(oq) < s.cfg.OutputBuf || oq[len(oq)-1] < q[0] {
				edges = append(edges, unitEdge{int32(i), int32(j)})
			}
		}
	}
	fr.edges = edges
	clear(fr.usedIn)
	clear(fr.usedOut)
	best := int64(-1)
	if err := s.cioqRec(t, c, 0, fr, st, &best); err != nil {
		return 0, err
	}
	return best, nil
}

func (s *refWeightedSolver) cioqRec(t, c, k int, fr *exactFrame, cur *wState, best *int64) error {
	if k == len(fr.edges) {
		v, err := s.cycle(t, c+1, cur)
		if err != nil {
			return err
		}
		if v > *best {
			*best = v
		}
		return nil
	}
	if err := s.cioqRec(t, c, k+1, fr, cur, best); err != nil {
		return err
	}
	e := fr.edges[k]
	i, j := int(e.i), int(e.j)
	if fr.usedIn[i] || fr.usedOut[j] {
		return nil
	}
	m := s.cfg.Outputs
	fr.usedIn[i], fr.usedOut[j] = true, true
	st2 := cur.clone()
	var v int64
	v, st2.iq[i*m+j] = st2.iq[i*m+j].popHead()
	oq := st2.oq[j]
	if len(oq) == s.cfg.OutputBuf {
		_, oq = oq.popTail() // preempt the minimum
	}
	st2.oq[j] = oq.insert(v)
	err := s.cioqRec(t, c, k+1, fr, st2, best)
	fr.usedIn[i], fr.usedOut[j] = false, false
	return err
}

// xbarCycle enumerates input-subphase and output-subphase choices.
func (s *refWeightedSolver) xbarCycle(t, c int, st *wState) (int64, error) {
	best := int64(-1)
	if err := s.xbarInputRec(t, c, 0, st, &best); err != nil {
		return 0, err
	}
	return best, nil
}

func (s *refWeightedSolver) xbarInputRec(t, c, i int, cur *wState, best *int64) error {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	if i == n {
		return s.xbarOutputRec(t, c, 0, cur, best)
	}
	if err := s.xbarInputRec(t, c, i+1, cur, best); err != nil {
		return err
	}
	for j := 0; j < m; j++ {
		q := cur.iq[i*m+j]
		if len(q) == 0 {
			continue
		}
		xq := cur.xq[i*m+j]
		if len(xq) == s.cfg.CrossBuf && xq[len(xq)-1] >= q[0] {
			continue
		}
		st2 := cur.clone()
		var v int64
		v, st2.iq[i*m+j] = st2.iq[i*m+j].popHead()
		x2 := st2.xq[i*m+j]
		if len(x2) == s.cfg.CrossBuf {
			_, x2 = x2.popTail()
		}
		st2.xq[i*m+j] = x2.insert(v)
		if err := s.xbarInputRec(t, c, i+1, st2, best); err != nil {
			return err
		}
	}
	return nil
}

func (s *refWeightedSolver) xbarOutputRec(t, c, j int, cur *wState, best *int64) error {
	n, m := s.cfg.Inputs, s.cfg.Outputs
	if j == m {
		v, err := s.cycle(t, c+1, cur)
		if err != nil {
			return err
		}
		if v > *best {
			*best = v
		}
		return nil
	}
	if err := s.xbarOutputRec(t, c, j+1, cur, best); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		q := cur.xq[i*m+j]
		if len(q) == 0 {
			continue
		}
		oq := cur.oq[j]
		if len(oq) == s.cfg.OutputBuf && oq[len(oq)-1] >= q[0] {
			continue
		}
		st2 := cur.clone()
		var v int64
		v, st2.xq[i*m+j] = st2.xq[i*m+j].popHead()
		o2 := st2.oq[j]
		if len(o2) == s.cfg.OutputBuf {
			_, o2 = o2.popTail()
		}
		st2.oq[j] = o2.insert(v)
		if err := s.xbarOutputRec(t, c, j+1, st2, best); err != nil {
			return err
		}
	}
	return nil
}

// The single-queue solver as it stood before the forward sweep: the
// successive-shortest-path greedy on the compressed arrival-epoch axis with
// two lazy segment trees. Kept test-only as the second oracle (beside the
// MCMF reference) of the three-way differential suite and as the probe
// parity reference; the body is verbatim apart from the ref prefix.

// refQueueOPTSolver is a reusable combinatorial engine for the bounded-buffer
// single-queue offline optimum (see SingleQueueOPT): packets arrive at
// given slots, the buffer holds at most bufCap packets at any time, up to
// sendCap packets are transmitted per slot, and preemption is free.
//
// Instead of solving a min-cost flow on the time-expanded line graph — two
// nodes per slot, so a 10^6-slot trace costs millions of nodes per solve —
// the solver works on the *compressed* timeline of arrival epochs: the
// distinct arrival slots of the instance. Every empty stretch between
// epochs costs O(1), mirroring the quiescent fast path of the simulators
// at the judge layer.
//
// The algorithm is the successive-shortest-path computation specialized to
// the line graph. A set S of packets is deliverable iff the work-conserving
// (send sendCap per slot whenever backlogged) schedule never overflows the
// buffer and drains by the horizon, which by the Lindley recursion is the
// window condition
//
//	|{p in S : s <= arrival(p) <= t}| <= bufCap + sendCap·(t-s)   for all s <= t
//	|{p in S : arrival(p) >= s}|      <= sendCap·(slots-s)        for all s
//
// with only arrival epochs binding as window endpoints. Deliverable sets
// are the independent sets of a gammoid (unit-capacity linkability in the
// line graph), so admitting packets greedily in decreasing value order —
// exactly the order successive shortest paths admits them — is optimal.
// Each admission test asks for a window maximum/minimum over the epoch
// axis, maintained by two lazy segment trees with range-add: writing
// P(x) for the number of admitted packets at epochs <= x, the conditions
// for admitting a packet at epoch j reduce to
//
//	max_{l >= j} (P(l) - c·a_l) + 1 - min_{i <= j} (P(i-1) - c·a_i) <= bufCap
//	|S| + 1 - c·slots <= min_{i <= j} (P(i-1) - c·a_i)
//
// with c = sendCap. The total work is O(K log K) for K packets regardless
// of the horizon. The zero value is ready to use; all scratch is reused
// across solves, so repeated solves allocate nothing once warm.
type refQueueOPTSolver struct {
	epochs []int      // distinct arrival slots, ascending
	cands  []qoptCand // admissible packets, later sorted by value
	g      epochTree  // leaf l: P(l) - c·a_l, queried for suffix maxima
	h      epochTree  // leaf i: P(i-1) - c·a_i, queried for prefix minima
	leaves []int64    // initial leaf values shared by both trees
}

// qoptCand is one packet surviving the admissibility filter: its value
// and its arrival — the raw slot during collection, remapped in place to
// the arrival's epoch index before the greedy sweep.
type qoptCand struct {
	v int64
	e int
}

// Solve returns the optimum delivered value. The packet order is free (the
// solver compresses and sorts arrivals itself); packets arriving at or
// after the horizon, and packets of non-positive value, never contribute.
func (s *refQueueOPTSolver) Solve(pkts []packet.Packet, slots int, bufCap, sendCap int64) int64 {
	if len(pkts) == 0 || slots <= 0 || bufCap <= 0 || sendCap <= 0 {
		judgeProbes.Load().RecordSolves(1, int64(len(pkts)), 0)
		return 0
	}
	// One admissibility pass: collect candidates with raw arrivals, build
	// the epoch axis from them, then remap arrivals to epoch indices.
	s.epochs = s.epochs[:0]
	s.cands = s.cands[:0]
	for _, p := range pkts {
		if p.Arrival >= slots || p.Value <= 0 {
			continue
		}
		s.epochs = append(s.epochs, p.Arrival)
		s.cands = append(s.cands, qoptCand{v: p.Value, e: p.Arrival})
	}
	if len(s.epochs) == 0 {
		judgeProbes.Load().RecordSolves(1, int64(len(pkts)), 0)
		return 0
	}
	slices.Sort(s.epochs)
	s.epochs = slices.Compact(s.epochs)
	m := len(s.epochs)
	judgeProbes.Load().RecordSolves(1, int64(len(pkts)), int64(m))
	for k := range s.cands {
		e, _ := slices.BinarySearch(s.epochs, s.cands[k].e)
		s.cands[k].e = e
	}
	slices.SortFunc(s.cands, func(a, b qoptCand) int {
		switch {
		case a.v > b.v:
			return -1
		case a.v < b.v:
			return 1
		}
		return 0
	})

	// Both trees start from the same leaves: P ≡ 0, so leaf x holds
	// -sendCap·a_x for G(x) = P(x) - c·a_x and H(x) = P(x-1) - c·a_x alike.
	s.leaves = s.leaves[:0]
	for _, a := range s.epochs {
		s.leaves = append(s.leaves, -sendCap*int64(a))
	}
	s.g.init(s.leaves)
	s.h.init(s.leaves)

	drainCap := sendCap * int64(slots)
	var total, benefit int64
	for _, c := range s.cands {
		e := c.e
		hmin := s.h.min(0, e)
		if total+1-drainCap > hmin {
			continue
		}
		if s.g.max(e, m-1)+1-hmin > bufCap {
			continue
		}
		total++
		benefit += c.v
		s.g.add(e, m-1, 1)
		if e+1 <= m-1 {
			s.h.add(e+1, m-1, 1)
		}
	}
	return benefit
}

// epochTree is a lazy segment tree over the compressed epoch axis with
// range add, range max and range min — the slack accountant behind
// refQueueOPTSolver. Storage is reused across init calls.
type epochTree struct {
	size int // leaf count, power of two
	m    int // live leaves
	mx   []int64
	mn   []int64
	lz   []int64
}

const epochInf = int64(1) << 62

// init loads the tree with the given leaf values.
func (t *epochTree) init(vals []int64) {
	t.m = len(vals)
	size := 1
	for size < t.m {
		size <<= 1
	}
	t.size = size
	t.mx = scratch.Grow(t.mx, 2*size)
	t.mn = scratch.Grow(t.mn, 2*size)
	t.lz = scratch.Grow(t.lz, 2*size)
	for i := range t.lz {
		t.lz[i] = 0
	}
	for i := 0; i < size; i++ {
		if i < t.m {
			t.mx[size+i] = vals[i]
			t.mn[size+i] = vals[i]
		} else {
			t.mx[size+i] = -epochInf
			t.mn[size+i] = epochInf
		}
	}
	for i := size - 1; i >= 1; i-- {
		t.mx[i] = max(t.mx[2*i], t.mx[2*i+1])
		t.mn[i] = min(t.mn[2*i], t.mn[2*i+1])
	}
}

// add adds d to every leaf in [l, r] (inclusive).
func (t *epochTree) add(l, r int, d int64) {
	if l > r {
		return
	}
	t.addRec(1, 0, t.size-1, l, r, d)
}

func (t *epochTree) addRec(node, lo, hi, l, r int, d int64) {
	if r < lo || hi < l {
		return
	}
	if l <= lo && hi <= r {
		t.mx[node] += d
		t.mn[node] += d
		t.lz[node] += d
		return
	}
	mid := (lo + hi) / 2
	t.addRec(2*node, lo, mid, l, r, d)
	t.addRec(2*node+1, mid+1, hi, l, r, d)
	t.mx[node] = max(t.mx[2*node], t.mx[2*node+1]) + t.lz[node]
	t.mn[node] = min(t.mn[2*node], t.mn[2*node+1]) + t.lz[node]
}

// max returns the maximum leaf value in [l, r] (inclusive).
func (t *epochTree) max(l, r int) int64 {
	return t.maxRec(1, 0, t.size-1, l, r)
}

func (t *epochTree) maxRec(node, lo, hi, l, r int) int64 {
	if r < lo || hi < l {
		return -epochInf
	}
	if l <= lo && hi <= r {
		return t.mx[node]
	}
	mid := (lo + hi) / 2
	return max(t.maxRec(2*node, lo, mid, l, r), t.maxRec(2*node+1, mid+1, hi, l, r)) + t.lz[node]
}

// min returns the minimum leaf value in [l, r] (inclusive).
func (t *epochTree) min(l, r int) int64 {
	return t.minRec(1, 0, t.size-1, l, r)
}

func (t *epochTree) minRec(node, lo, hi, l, r int) int64 {
	if r < lo || hi < l {
		return epochInf
	}
	if l <= lo && hi <= r {
		return t.mn[node]
	}
	mid := (lo + hi) / 2
	return min(t.minRec(2*node, lo, mid, l, r), t.minRec(2*node+1, mid+1, hi, l, r)) + t.lz[node]
}

// The min-cost-flow formulation of the relaxation bounds, the judges'
// first implementation: every relaxed queue is a time-expanded line graph
// solved by internal/testkit/flow. Kept test-only as the second oracle of the
// differential suite, FuzzSingleQueueOPT and FuzzCombinedUpperBound.

// check validates the configuration and sequence once per call.
func check(cfg switchsim.Config, seq packet.Sequence, crossbar bool) error {
	if err := cfg.Check(crossbar); err != nil {
		return err
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return fmt.Errorf("offline: bad sequence: %w", err)
	}
	return nil
}

// partition splits the packets due before the horizon into per-port
// buckets for the flow reference. Either destination may be nil to skip
// that side.
func partition(seq packet.Sequence, slots int, byOut, byIn [][]packet.Packet) {
	for _, p := range seq {
		if p.Arrival >= slots {
			continue
		}
		if byOut != nil {
			byOut[p.Out] = append(byOut[p.Out], p)
		}
		if byIn != nil {
			byIn[p.In] = append(byIn[p.In], p)
		}
	}
}

// sumParallel evaluates f(0..n-1) across a bounded worker pool and sums
// the results: the flow reference's per-port solves are independent and
// cost milliseconds each, so they scale with cores; small n falls back to
// a plain loop.
func sumParallel(n int, f func(int) int64) int64 {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 || n < 4 {
		var total int64
		for k := 0; k < n; k++ {
			total += f(k)
		}
		return total
	}
	partial := make([]int64, n)
	var wg sync.WaitGroup
	work := make(chan int, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				partial[k] = f(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		work <- k
	}
	close(work)
	wg.Wait()
	var total int64
	for _, v := range partial {
		total += v
	}
	return total
}

// SingleQueueOPTFlow solves the same bounded-buffer single-queue problem
// as QueueOPTSolver.Solve via min-cost flow on the time-expanded line
// graph — two nodes per slot plus one per packet. Both return identical
// values on every instance, which the differential suite and
// FuzzSingleQueueOPT pin.
func SingleQueueOPTFlow(pkts []packet.Packet, slots int, bufCap, sendCap int64) int64 {
	if len(pkts) == 0 || slots == 0 {
		return 0
	}
	// Nodes: 0 = source, 1 = sink, then per slot t two nodes (in, out)
	// forming the node-capacity gadget, then one node per packet.
	base := 2
	slotIn := func(t int) int { return base + 2*t }
	slotOut := func(t int) int { return base + 2*t + 1 }
	pktNode := func(k int) int { return base + 2*slots + k }
	m := flow.NewMCMF(base + 2*slots + len(pkts))
	for t := 0; t < slots; t++ {
		// Buffer holds at most bufCap packets during a slot...
		m.AddEdge(slotIn(t), slotOut(t), bufCap, 0)
		// ...of which up to sendCap may depart...
		m.AddEdge(slotOut(t), 1, sendCap, 0)
		// ...and the rest carried to the next slot.
		if t+1 < slots {
			m.AddEdge(slotOut(t), slotIn(t+1), bufCap, 0)
		}
	}
	for k, p := range pkts {
		if p.Arrival >= slots {
			continue
		}
		m.AddEdge(0, pktNode(k), 1, -p.Value)
		m.AddEdge(pktNode(k), slotIn(p.Arrival), 1, 0)
	}
	_, benefit := m.MaxBenefit(0, 1)
	return benefit
}

// CombinedUpperBoundFlow recomputes CombinedUpperBound through the
// time-expanded min-cost-flow reference; values are exactly equal to
// CombinedUpperBound.
func CombinedUpperBoundFlow(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	if err := check(cfg, seq, crossbar); err != nil {
		return 0, err
	}
	slots := cfg.HorizonFor(seq)
	byOut := make([][]packet.Packet, cfg.Outputs)
	byIn := make([][]packet.Packet, cfg.Inputs)
	partition(seq, slots, byOut, byIn)
	outCap, inCap := relaxedCaps(cfg, crossbar)
	out := sumParallel(len(byOut), func(j int) int64 {
		return SingleQueueOPTFlow(byOut[j], slots, outCap, 1)
	})
	in := sumParallel(len(byIn), func(i int) int64 {
		return SingleQueueOPTFlow(byIn[i], slots, inCap, int64(cfg.Speedup))
	})
	return min(out, in), nil
}
