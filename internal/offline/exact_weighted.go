package offline

import (
	"fmt"
	"math/bits"
	"sync"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// Guards for the weighted searches: these explore admission decisions in
// addition to matchings, so only micro instances are tractable.
const (
	maxWPorts   = 2
	maxWBuf     = 3
	maxWSpeedup = 2
	maxWSlots   = 16
	maxWPackets = 14
)

// The weighted state is three 14-bit planes of one word, one bit a packet:
// the packets in input queues, in crosspoint queues and in output queues.
// A packet in no plane has not arrived yet, or was rejected, preempted or
// sent. Packets are numbered by descending value, so the head (maximum) of
// a queue is the lowest set bit of plane & queue mask, its minimum the
// highest, and its length the population count.
const (
	planeIn    = 0
	planeCross = 16
	planeOut   = 32
	planeMask  = 1<<maxWPackets - 1
)

// wMove is one transfer a scheduling stage may choose: the head of the
// queue (from, src) joins the queue (to, dst) of capacity room, preempting
// its minimum when full and strictly smaller.
type wMove struct {
	from, to uint   // plane shifts
	src, dst uint64 // the packets whose route uses the queue
	room     int
	out      uint32 // CIOQ: the output port's bit, one transfer per cycle; crossbar: 0
}

// WeightedSolver is a reusable exact solver for micro weighted instances
// (CIOQ or buffered crossbar). The zero value is ready; SolveCIOQ and
// SolveCrossbar may be called repeatedly and reuse the memo table, so a
// warm solve allocates nothing: every packet has a fixed input queue,
// crosspoint and output, so the whole state is which of them holds it —
// one word (see planeIn). Not safe for concurrent use; the package
// functions wrap a pool of these.
type WeightedSolver struct {
	inputBuf, speedup, slots int
	val                      [maxWPackets]int64            // value of packet p, descending in p
	order                    [maxWPackets]uint8            // order[k]: the number of the sequence's k-th packet
	queue                    [maxWPackets]uint8            // queue[p]: the input queue of packet p, an index into voq
	first                    [maxWSlots + 1]int            // order[first[t]:first[t+1]] arrives in slot t
	future                   [maxWSlots]uint64             // packets arriving after slot t
	voq                      [maxWPorts * maxWPorts]uint64 // packets of input queue (i,j), at i*outputs+j
	outs                     [maxWPorts]uint64             // packets bound for output j
	nOut                     int
	stages                   [][]wMove // one cycle's stages, slices of moves held in stageBuf
	stageBuf                 [2 * maxWPorts][]wMove
	moves                    [2 * maxWPorts * maxWPorts]wMove
	memo                     wordMemo
	cuts                     int  // states whose enumeration the cut ended early
	tooLarge                 bool // the memo outgrew memoCap: unwind
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
// Among equal values the lower-numbered packet counts as the larger, which
// leaves every multiset — and so the optimum — as it was.
//
// Exact cut: from slot t on, output j sends at most slots-t packets, all
// among those bound for it that are in the switch or yet to arrive; once a
// state's best child reaches the sum over outputs of the slots-t largest
// such values, the remaining siblings are skipped. The memo still stores
// the exact optimum.
//
// Returns ErrTooLarge when the instance exceeds the guards.
func (s *WeightedSolver) SolveCIOQ(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, false)
}

// SolveCrossbar is the buffered-crossbar counterpart of SolveCIOQ: the
// state additionally tracks the crosspoint queues, and each cycle
// branches over the input subphase (per input: one eligible queue or
// none) and the output subphase (per output: one eligible crosspoint
// queue or none).
func (s *WeightedSolver) SolveCrossbar(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	return s.solve(cfg, seq, true)
}

func (s *WeightedSolver) solve(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
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
	judgeProbes.Load().RecordExactSolve()
	s.inputBuf, s.speedup, s.slots = cfg.InputBuf, cfg.Speedup, slots
	s.index(cfg, seq)
	s.layout(cfg, crossbar)
	s.memo.reset()
	s.cuts, s.tooLarge = 0, false
	v := s.admit(0, 0, 0)
	if s.tooLarge {
		return 0, ErrTooLarge
	}
	return v, nil
}

// index numbers the packets that arrive inside the horizon by descending
// value (the validated sequence is sorted by arrival) and builds the
// per-slot, per-queue and per-output packet masks.
func (s *WeightedSolver) index(cfg switchsim.Config, seq packet.Sequence) {
	for len(seq) > 0 && seq[len(seq)-1].Arrival >= s.slots {
		seq = seq[:len(seq)-1]
	}
	// rank[r] is the sequence index of the r-th most valuable packet.
	var rank [maxWPackets]uint8
	for k := range seq {
		r := k
		for ; r > 0 && seq[rank[r-1]].Value < seq[k].Value; r-- {
			rank[r] = rank[r-1]
		}
		rank[r] = uint8(k)
	}
	clear(s.voq[:])
	clear(s.outs[:])
	clear(s.future[:])
	s.nOut = cfg.Outputs
	for r, k := range rank[:len(seq)] {
		p := seq[k]
		s.val[r], s.order[k] = p.Value, uint8(r)
		s.queue[r] = uint8(p.In*cfg.Outputs + p.Out)
		s.voq[s.queue[r]] |= 1 << r
		s.outs[p.Out] |= 1 << r
		for t := 0; t < p.Arrival; t++ {
			s.future[t] |= 1 << r
		}
	}
	k := 0
	for t := 0; t <= s.slots; t++ {
		for k < len(seq) && seq[k].Arrival < t {
			k++
		}
		s.first[t] = k
	}
}

// layout builds the scheduling stages of one cycle, as in unitDP: stage i
// of a CIOQ switch picks the output input i feeds; a crossbar has the
// input subphase's stages, then the output subphase's.
func (s *WeightedSolver) layout(cfg switchsim.Config, crossbar bool) {
	n, m := cfg.Inputs, cfg.Outputs
	moves, stages := s.moves[:0], s.stageBuf[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			q := s.voq[i*m+j]
			if crossbar {
				moves = append(moves, wMove{planeIn, planeCross, q, q, cfg.CrossBuf, 0})
			} else {
				moves = append(moves, wMove{planeIn, planeOut, q, s.outs[j], cfg.OutputBuf, 1 << j})
			}
		}
		stages = append(stages, moves[i*m:])
	}
	for j := 0; crossbar && j < m; j++ {
		for i := 0; i < n; i++ {
			moves = append(moves, wMove{planeCross, planeOut, s.voq[i*m+j], s.outs[j], cfg.OutputBuf, 0})
		}
		stages = append(stages, moves[n*m+j*n:])
	}
	s.stages = stages
}

// admit branches over the admission decisions for slot t's arrivals from
// the k-th packet of the sequence on, then descends into the cycles.
func (s *WeightedSolver) admit(t, k int, w uint64) int64 {
	if k == s.first[t+1] {
		return s.cycle(t, 0, w)
	}
	p := uint(s.order[k])
	queue := w & s.voq[s.queue[p]]
	if bits.OnesCount64(queue) < s.inputBuf {
		// Room available: accepting weakly dominates rejecting (the
		// packet can always be preempted later), so do not branch.
		return s.admit(t, k+1, w|1<<p)
	}
	// Full queue: branch between rejecting and, when profitable,
	// preempting the minimum.
	best := s.admit(t, k+1, w)
	if tail := uint(bits.Len64(queue)) - 1; s.val[tail] < s.val[p] {
		best = max(best, s.admit(t, k+1, w&^(1<<tail)|1<<p))
	}
	return best
}

// ceiling is the cut's upper bound on the value sent from slot t on.
func (s *WeightedSolver) ceiling(t int, w uint64) int64 {
	live := (w | w>>planeCross | w>>planeOut | s.future[t]) & planeMask
	var total int64
	for _, out := range s.outs[:s.nOut] {
		left := s.slots - t
		for c := live & out; c != 0 && left > 0; c &= c - 1 {
			total += s.val[bits.TrailingZeros64(c)]
			left--
		}
	}
	return total
}

// cycle returns the optimum from the start of cycle c of slot t in state
// w; after the last cycle it applies the fixed transmission phase and the
// next slot's admissions.
func (s *WeightedSolver) cycle(t, c int, w uint64) int64 {
	if c == s.speedup {
		var sent int64
		for _, out := range s.outs[:s.nOut] {
			if q := w >> planeOut & out; q != 0 {
				head := uint(bits.TrailingZeros64(q))
				sent += s.val[head]
				w &^= 1 << (head + planeOut)
			}
		}
		if t+1 == s.slots {
			return sent
		}
		return sent + s.admit(t+1, s.first[t+1], w)
	}
	key := uint64(t*s.speedup+c)<<tagShift | w
	if v, ok := s.memo.get(key); ok {
		return v
	}
	ceil := s.ceiling(t, w)
	if ceil == 0 {
		return 0
	}
	if s.memo.used > memoCap {
		s.tooLarge = true
		return 0
	}
	var best int64
	if s.explore(t, c, 0, w, 0, ceil, &best) {
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
func (s *WeightedSolver) explore(t, c, k int, w uint64, used uint32, ceil int64, best *int64) bool {
	if k == len(s.stages) {
		*best = max(*best, s.cycle(t, c+1, w))
		return *best >= ceil || s.tooLarge
	}
	for _, mv := range s.stages[k] {
		src := w >> mv.from & mv.src
		if src == 0 || used&mv.out != 0 {
			continue
		}
		head, next := uint(bits.TrailingZeros64(src)), w
		if dst := w >> mv.to & mv.dst; bits.OnesCount64(dst) == mv.room {
			tail := uint(bits.Len64(dst)) - 1
			if s.val[tail] >= s.val[head] {
				continue
			}
			next &^= 1 << (tail + mv.to) // preempt the minimum
		}
		next = next&^(1<<(head+mv.from)) | 1<<(head+mv.to)
		if s.explore(t, c, k+1, next, used|mv.out, ceil, best) {
			return true
		}
	}
	return s.explore(t, c, k+1, w, used, ceil, best)
}

var weightedPool = sync.Pool{New: func() any { return new(WeightedSolver) }}

// ExactWeightedCIOQ solves a micro weighted CIOQ instance exactly on a
// pooled reusable solver; see (*WeightedSolver).SolveCIOQ.
func ExactWeightedCIOQ(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	s := weightedPool.Get().(*WeightedSolver)
	defer weightedPool.Put(s)
	return s.SolveCIOQ(cfg, seq)
}

// ExactWeightedCrossbar solves a micro weighted buffered-crossbar
// instance exactly on a pooled reusable solver; see
// (*WeightedSolver).SolveCrossbar.
func ExactWeightedCrossbar(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	s := weightedPool.Get().(*WeightedSolver)
	defer weightedPool.Put(s)
	return s.SolveCrossbar(cfg, seq)
}
