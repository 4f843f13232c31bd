package offline

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// ErrTooLarge is returned when an instance exceeds the exact solvers'
// tractability guards.
var ErrTooLarge = errors.New("offline: instance too large for exact solver")

const (
	maxExactBuf     = 15 // lengths must fit in the state encoding
	maxExactSpeedup = 4
	maxExactSlots   = 160
	maxExactStates  = 1 << 22 // estimated reachable states per slot
	memoCap         = 1 << 23 // total memo entries before giving up
)

// unitStateEstimate bounds the per-slot state count of the unit DP:
// (Bin+1)^(N*M) * [(Bx+1)^(N*M)] * (Bout+1)^M, capped to avoid overflow.
// Small geometries with large buffers and large geometries with unit
// buffers are both tractable; the guard admits whatever fits.
func unitStateEstimate(cfg switchsim.Config, crossbar bool) float64 {
	est := 1.0
	mul := func(base float64, times int) {
		for k := 0; k < times && est <= 2*maxExactStates; k++ {
			est *= base
		}
	}
	mul(float64(cfg.InputBuf+1), cfg.Inputs*cfg.Outputs)
	if crossbar {
		mul(float64(cfg.CrossBuf+1), cfg.Inputs*cfg.Outputs)
	}
	mul(float64(cfg.OutputBuf+1), cfg.Outputs)
	return est
}

// The exact solvers keep a whole switch state in one uint64 and memoise
// on (depth tag << tagShift | state): a unit state is at most 44 bits (see
// unitDP), a weighted one 46 (see WeightedSolver), and the tag
// slot*Speedup+cycle is below 640.
const tagShift = 48

// wordMemo is the exact solvers' memo: an open-addressed, linearly probed
// table from a state key to the exact optimum from that state on. Every
// solve starts on the smallest level and moves up one level (twice the
// slots) when half full, so clearing and probing cost what the solve
// itself costs, however large an earlier solve on the same object was;
// the levels are kept, so a warm solve allocates nothing. The solvers give
// up at memoCap entries, so no level has more than 2*memoCap slots.
type wordMemo struct {
	levels [][]memoSlot // levels[k] has memoMinSlots<<k slots
	tab    []memoSlot   // the level in use
	shift  uint         // 64 - log2(len(tab)): the hash keeps the top bits
	used   int
}

// memoSlot holds one entry; stored keys carry memoLive, so key 0 is empty.
type memoSlot struct {
	key uint64
	val int64
}

const (
	memoLive     = 1 << 63
	memoMinSlots = 1 << 8
)

func (m *wordMemo) reset() {
	m.used = 0
	m.use(0)
}

func (m *wordMemo) use(level int) {
	if level == len(m.levels) {
		m.levels = append(m.levels, make([]memoSlot, memoMinSlots<<level))
	} else {
		clear(m.levels[level])
	}
	m.tab = m.levels[level]
	m.shift = uint(64 - bits.TrailingZeros(uint(len(m.tab))))
}

// slot returns key's slot, or the empty slot where it belongs.
func (m *wordMemo) slot(key uint64) *memoSlot {
	mask := uint64(len(m.tab) - 1)
	for h := key * 0x9E3779B97F4A7C15 >> m.shift; ; h = (h + 1) & mask {
		if s := &m.tab[h]; s.key == key || s.key == 0 {
			return s
		}
	}
}

func (m *wordMemo) get(key uint64) (int64, bool) {
	s := m.slot(key | memoLive)
	return s.val, s.key != 0
}

func (m *wordMemo) put(key uint64, val int64) {
	if m.used++; 2*m.used > len(m.tab) && len(m.tab) < 2*memoCap {
		old := m.tab
		m.use(bits.TrailingZeros(uint(len(old)/memoMinSlots)) + 1)
		for _, s := range old {
			if s.key != 0 {
				*m.slot(s.key) = s
			}
		}
	}
	*m.slot(key | memoLive) = memoSlot{key | memoLive, val}
}

// unitField locates one queue's length inside the state word.
type unitField struct {
	mask  uint64 // the field's bits: state&mask != 0 iff the queue is non-empty
	full  uint64 // state&mask when the queue is at capacity
	shift uint   // 1<<shift lengthens the queue by one packet
}

// unitMove is one transfer a scheduling stage may choose.
type unitMove struct {
	src   uint64 // source field mask
	dst   uint64 // destination field mask
	full  uint64 // destination field when at capacity
	delta uint64 // added to the state (mod 2^64): destination +1, source -1
	out   uint32 // CIOQ: the output port's bit, one transfer per cycle; crossbar: 0
}

// unitDP is the exact dynamic program over queue-length states shared by
// UnitCIOQSolver and UnitCrossbarSolver.
//
// With unit values, packets in the same queue are interchangeable, so the
// vector of queue lengths is a sufficient state. The paper's WLOG
// reductions fix everything except the per-cycle scheduling choice: the
// optimum accepts whenever there is room, never preempts, and transmits
// from every non-empty output queue. The DP therefore branches only over
// the transfers of every scheduling cycle, non-maximal choices included.
//
// Packed state: each queue length is a bits.Len(capacity)-wide field of
// one uint64 — input queues, then crosspoint queues, then output queues. A
// field is at most twice log2(capacity+1) wide and the guard holds the
// product of the (capacity+1)s to 2^22, so the word is at most 44 bits; a
// transfer adds one field constant and subtracts another.
//
// A cycle is a run of stages, each choosing one of its eligible moves or
// none: on a CIOQ switch stage i picks the output that input i feeds (a
// matching: every output at most once); on a crossbar stages 0..N-1 are
// the input subphase (input i feeds one of its crosspoints) and stages
// N..N+M-1 the output subphase (output j drains one of its crosspoints).
//
// Exact cut: from slot t on, output j transmits at most slots-t packets
// and at most those bound for it that are in the switch or yet to arrive.
// No schedule beats the sum of these ceilings, so once a state's best
// child reaches it the remaining siblings are skipped; the memo still
// stores the exact optimum.
type unitDP struct {
	outputs, speedup, slots int
	seq                     packet.Sequence
	first                   []int32     // seq[first[t]:first[t+1]] arrives in slot t
	future                  []int32     // future[t*outputs+j]: packets for j arriving after slot t
	iq, oq                  []unitField // input queue (i,j) at i*outputs+j; output queue j
	stages                  [][]unitMove
	moves                   []unitMove // backing store of stages
	memo                    wordMemo
	cuts                    int  // states whose enumeration the cut ended early
	tooLarge                bool // the memo outgrew memoCap: unwind
}

func (s *unitDP) solve(cfg switchsim.Config, seq packet.Sequence, crossbar bool, name string) (int64, error) {
	if err := cfg.Check(crossbar); err != nil {
		return 0, err
	}
	if !seq.IsUnit() {
		return 0, fmt.Errorf("offline: %s requires unit values", name)
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return 0, fmt.Errorf("offline: bad sequence: %w", err)
	}
	slots := cfg.HorizonFor(seq)
	if cfg.InputBuf > maxExactBuf || cfg.OutputBuf > maxExactBuf || (crossbar && cfg.CrossBuf > maxExactBuf) ||
		cfg.Speedup > maxExactSpeedup || slots > maxExactSlots ||
		unitStateEstimate(cfg, crossbar) > maxExactStates {
		return 0, ErrTooLarge
	}
	judgeProbes.Load().RecordExactSolve()
	s.outputs, s.speedup, s.slots, s.seq = cfg.Outputs, cfg.Speedup, slots, seq
	s.layout(cfg, crossbar)
	s.index()
	s.memo.reset()
	s.cuts, s.tooLarge = 0, false
	v := s.cycle(0, 0, s.arrive(0, 0))
	if s.tooLarge {
		return 0, ErrTooLarge
	}
	return v, nil
}

// layout assigns the fields and builds the stages for cfg's geometry.
func (s *unitDP) layout(cfg switchsim.Config, crossbar bool) {
	n, m := cfg.Inputs, cfg.Outputs
	var width uint // of the state so far
	fields := func(dst []unitField, count, capacity int) []unitField {
		w := uint(bits.Len(uint(capacity)))
		for k := 0; k < count; k++ {
			dst = append(dst, unitField{mask: (1<<w - 1) << width,
				full: uint64(capacity) << width, shift: width})
			width += w
		}
		return dst
	}
	s.iq = fields(s.iq[:0], n*m, cfg.InputBuf)
	if crossbar {
		s.iq = fields(s.iq, n*m, cfg.CrossBuf)
	}
	s.oq = fields(s.oq[:0], m, cfg.OutputBuf)
	xq := s.iq[len(s.iq)-n*m:] // the crosspoint fields on a crossbar

	move := func(src, dst unitField, out uint32) {
		s.moves = append(s.moves, unitMove{src: src.mask, dst: dst.mask, full: dst.full,
			delta: 1<<dst.shift - 1<<src.shift, out: out})
	}
	if cap(s.moves) < 2*n*m {
		s.moves = make([]unitMove, 0, 2*n*m) // stages alias it: it must not move
	}
	s.moves, s.stages = s.moves[:0], s.stages[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if crossbar {
				move(s.iq[i*m+j], xq[i*m+j], 0)
			} else {
				move(s.iq[i*m+j], s.oq[j], 1<<j)
			}
		}
		s.stages = append(s.stages, s.moves[i*m:])
	}
	for j := 0; crossbar && j < m; j++ {
		for i := 0; i < n; i++ {
			move(xq[i*m+j], s.oq[j], 0)
		}
		s.stages = append(s.stages, s.moves[n*m+j*n:])
	}
}

// index builds first and future from the validated (arrival-sorted)
// sequence; packets arriving at or beyond the horizon never enter.
func (s *unitDP) index() {
	m := s.outputs
	if cap(s.first) <= s.slots {
		s.first = make([]int32, s.slots+1)
	}
	if cap(s.future) < s.slots*m {
		s.future = make([]int32, s.slots*m)
	}
	s.first, s.future = s.first[:s.slots+1], s.future[:s.slots*m]
	k := 0
	for t := range s.first {
		for k < len(s.seq) && s.seq[k].Arrival < t {
			k++
		}
		s.first[t] = int32(k)
	}
	clear(s.future[(s.slots-1)*m:])
	for t := s.slots - 2; t >= 0; t-- {
		row := s.future[t*m : (t+1)*m]
		copy(row, s.future[(t+1)*m:])
		for _, p := range s.seq[s.first[t+1]:s.first[t+2]] {
			row[p.Out]++
		}
	}
}

// arrive applies slot t's arrival phase: accepting whenever there is room
// is WLOG-optimal for unit values.
func (s *unitDP) arrive(t int, st uint64) uint64 {
	for _, p := range s.seq[s.first[t]:s.first[t+1]] {
		if f := &s.iq[p.In*s.outputs+p.Out]; st&f.mask != f.full {
			st += 1 << f.shift
		}
	}
	return st
}

// ceiling is the cut's upper bound on the packets sent from slot t on.
func (s *unitDP) ceiling(t int, st uint64) int64 {
	m := s.outputs
	var total int64
	for j := 0; j < m; j++ {
		have := uint64(s.future[t*m+j]) + st&s.oq[j].mask>>s.oq[j].shift
		for q := j; q < len(s.iq); q += m { // input and crosspoint queues of output j
			have += st & s.iq[q].mask >> s.iq[q].shift
		}
		total += min(int64(have), int64(s.slots-t))
	}
	return total
}

// cycle returns the optimum from the start of cycle c of slot t in state
// st; after the last cycle it applies the (work-conserving) transmission
// phase and the next slot's arrivals.
func (s *unitDP) cycle(t, c int, st uint64) int64 {
	if c == s.speedup {
		var sent int64
		for j := range s.oq {
			if f := &s.oq[j]; st&f.mask != 0 {
				st -= 1 << f.shift
				sent++
			}
		}
		if t+1 == s.slots {
			return sent
		}
		return sent + s.cycle(t+1, 0, s.arrive(t+1, st))
	}
	key := uint64(t*s.speedup+c)<<tagShift | st
	if v, ok := s.memo.get(key); ok {
		return v
	}
	ceil := s.ceiling(t, st)
	if ceil == 0 {
		return 0
	}
	if s.memo.used > memoCap {
		s.tooLarge = true
		return 0
	}
	var best int64
	if s.explore(t, c, 0, st, 0, ceil, &best) {
		if s.tooLarge {
			return 0
		}
		s.cuts++
	}
	s.memo.put(key, best)
	return best
}

// explore enumerates the choices of stages k.. of the cycle, folding the
// value of every completed cycle into *best. It reports true when the
// enumeration should stop: *best reached the ceiling, or the memo is full.
func (s *unitDP) explore(t, c, k int, st uint64, used uint32, ceil int64, best *int64) bool {
	if k == len(s.stages) {
		*best = max(*best, s.cycle(t, c+1, st))
		return *best >= ceil || s.tooLarge
	}
	for _, mv := range s.stages[k] {
		if st&mv.src != 0 && st&mv.dst != mv.full && used&mv.out == 0 &&
			s.explore(t, c, k+1, st+mv.delta, used|mv.out, ceil, best) {
			return true
		}
	}
	return s.explore(t, c, k+1, st, used, ceil, best)
}

// UnitCIOQSolver is a reusable exact solver for unit-value CIOQ
// instances; see unitDP. The zero value is ready; Solve may be called
// repeatedly and reuses the memo table, the field layout and the arrival
// index, so a warm solve allocates nothing. Not safe for concurrent use;
// ExactUnitCIOQ wraps a pool of these for the concurrent-judge case.
type UnitCIOQSolver struct{ unitDP }

// Solve computes the exact offline optimum benefit (= number of
// transmitted packets) of a unit-value CIOQ instance. Returns ErrTooLarge
// for instances beyond the tractability guards.
func (s *UnitCIOQSolver) Solve(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, false, "ExactUnitCIOQ")
}

var unitCIOQPool = sync.Pool{New: func() any { return new(UnitCIOQSolver) }}

// ExactUnitCIOQ solves a unit-value CIOQ instance exactly on a pooled
// reusable solver; see (*UnitCIOQSolver).Solve.
func ExactUnitCIOQ(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	s := unitCIOQPool.Get().(*UnitCIOQSolver)
	defer unitCIOQPool.Put(s)
	return s.Solve(cfg, seq)
}

// UnitCrossbarSolver is the buffered-crossbar counterpart of
// UnitCIOQSolver: the crosspoint queue lengths join the state and each
// cycle enumerates the two scheduling subphases. The zero value is
// ready; not safe for concurrent use.
type UnitCrossbarSolver struct{ unitDP }

// Solve computes the exact offline optimum of a unit-value buffered
// crossbar instance: the input subphase picks, for each input port, one
// eligible queue (or none); the output subphase picks, for each output
// port, one eligible crosspoint queue (or none).
func (s *UnitCrossbarSolver) Solve(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, true, "ExactUnitCrossbar")
}

var unitXbarPool = sync.Pool{New: func() any { return new(UnitCrossbarSolver) }}

// ExactUnitCrossbar solves a unit-value buffered-crossbar instance
// exactly on a pooled reusable solver; see (*UnitCrossbarSolver).Solve.
func ExactUnitCrossbar(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	s := unitXbarPool.Get().(*UnitCrossbarSolver)
	defer unitXbarPool.Put(s)
	return s.Solve(cfg, seq)
}
