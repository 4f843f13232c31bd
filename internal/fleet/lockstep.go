package fleet

import (
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// windowSlots is the lockstep quantum: one Step advances the global clock
// by up to this many slots, each active instance simulating its share of
// the window in one visit. Windowing is what makes the columnar layout
// cache-dense at large batch sizes — an instance's working set (rings,
// headers, masks, counters) is pulled into cache once per window instead
// of once per slot, while the skew between instances stays bounded by the
// window length. Results are independent of the window size; instances
// never read each other's state.
const windowSlots = 32

// hotCtr is the per-instance block of metric accumulators updated in the
// per-slot loop, folded into switchsim.Metrics at retirement. The crossbar
// fields stay zero for CIOQ fleets; the preempt fields stay zero for the
// unit-value kernels, whose admission and transfers never evict.
type hotCtr struct {
	arrived, arrivedVal               int64
	accepted, acceptedVal             int64
	rejected, rejectedVal             int64
	transferred, transferredCross     int64
	sent, benefit                     int64
	inOccup, crossOccup, outOccup     int64
	sampled                           int64
	preemptedIn, preemptedInVal       int64
	preemptedCross, preemptedCrossVal int64
	preemptedOut, preemptedOutVal     int64
}

type instStatus int

const (
	instActive instStatus = iota
	instSleep
	instRetired
	instErr
)

// windowRunner is an engine's slot body: runWindow simulates instance k
// from its current slot up to the window end on the engine's own columns,
// and reports whether the instance stays active, sleeps, retires (through
// lockstep.retire) or failed (with lockstep.err set).
type windowRunner interface {
	runWindow(k int32, end int) instStatus
}

// lockstep is the batch bookkeeping every columnar engine embeds: the
// loaded sequences and per-instance cursors, the metric blocks and
// results, and the active list and wake heap that Step drives. Storage is
// sized once at construction and reused across Resets.
type lockstep struct {
	cfg    switchsim.Config
	policy string
	eng    windowRunner // the embedding engine
	batch  int          // storage capacity (construction batch size)
	cur    int          // instances loaded by the last Reset

	// passCount tallies pass-through deliveries (pend-buffer parks)
	// across the fleet's lifetime; the runner diffs it around each batch
	// to flush the fleet probes. Only the unit kernels park.
	passCount int64
	// jumps and jumped tally quiescent jumps and the slots they covered
	// across the fleet's lifetime; a batch-of-one run reports them to the
	// engine probes as the reference loop would.
	jumps, jumped int64

	hot    []hotCtr // [k]
	series [][]int64
	// res holds the loaded instances' Results, their Metrics filled in as
	// they run; each load allocates it afresh, so Results handed out by
	// an earlier batch stay intact. results points into it as instances
	// retire.
	res     []switchsim.Result
	results []*switchsim.Result

	seqs    []packet.Sequence
	next    []int
	horizon []int
	at      []int              // per-instance next slot to simulate
	check   []packet.Validator // per-instance, fed each packet as it is admitted

	// Lockstep scheduling state.
	active []int32
	sleep  []sleeper
	slot   int // current window start
	live   int
	err    error
}

// newLockstep sizes the bookkeeping of a `batch`-instance engine.
func newLockstep(cfg switchsim.Config, policy string, batch int, eng windowRunner) lockstep {
	l := lockstep{
		cfg: cfg, policy: policy, eng: eng, batch: batch, cur: batch,
		hot:     make([]hotCtr, batch),
		results: make([]*switchsim.Result, batch),
		next:    make([]int, batch),
		horizon: make([]int, batch),
		at:      make([]int, batch),
		check:   make([]packet.Validator, batch),
		active:  make([]int32, 0, batch),
		sleep:   make([]sleeper, 0, batch),
	}
	if cfg.RecordSeries {
		l.series = make([][]int64, batch)
	}
	return l
}

// load is the engine-independent half of Reset: it checks the batch size,
// takes the sequences and rewinds every loaded instance's cursor,
// validator, metrics and result to slot 0; the engine then clears its own
// columns. The engines admit every packet with Arrival <= T, so a packet
// out of order reaches its validator at its own index instead of being
// passed by.
func (l *lockstep) load(seqs []packet.Sequence) error {
	if len(seqs) < 1 || len(seqs) > l.batch {
		return fmt.Errorf("fleet: got %d sequences for a batch of %d", len(seqs), l.batch)
	}
	l.cur = len(seqs)
	clear(l.hot)
	l.seqs = seqs
	l.active = l.active[:0]
	l.sleep = l.sleep[:0]
	l.slot = 0
	l.live = l.cur
	l.err = nil
	l.res = make([]switchsim.Result, l.cur)
	for k := 0; k < l.cur; k++ {
		if l.cfg.RecordLatency && l.cfg.StreamMetrics {
			l.res[k].M.EnableLatencySketch()
		}
		l.results[k] = nil
		l.next[k] = 0
		l.at[k] = 0
		l.check[k] = packet.NewValidator(l.cfg.Inputs, l.cfg.Outputs)
		l.horizon[k] = l.cfg.HorizonFor(seqs[k])
		if l.cfg.RecordSeries {
			l.series[k] = make([]int64, l.horizon[k])
		}
		l.active = append(l.active, int32(k))
	}
	// Drop any tail a previous larger batch left behind, so a runner
	// idling on a short final chunk does not pin old Results and their
	// latency/series storage.
	for k := l.cur; k < l.batch; k++ {
		l.results[k] = nil
		if l.series != nil {
			l.series[k] = nil
		}
	}
	return nil
}

// Step advances the global clock by one window (up to windowSlots slots),
// simulating every active instance's share of the window and waking
// sleepers due within it. It returns false once all instances have
// retired or an error is pending; see Results.
func (l *lockstep) Step() bool {
	if l.err != nil || l.live == 0 {
		return false
	}
	if len(l.active) == 0 {
		// Everyone sleeps: jump the clock to the earliest wake.
		l.slot = l.sleep[0].wake
	}
	end := l.slot + windowSlots
	for len(l.sleep) > 0 && l.sleep[0].wake < end {
		var s sleeper
		l.sleep, s = sleepPop(l.sleep)
		l.at[s.k] = s.wake
		l.active = append(l.active, s.k)
	}
	for idx := 0; idx < len(l.active); idx++ {
		k := l.active[idx]
		switch l.eng.runWindow(k, end) {
		case instActive:
		case instErr:
			return false
		default: // instSleep, instRetired: swap-remove from the dense set
			last := len(l.active) - 1
			l.active[idx] = l.active[last]
			l.active = l.active[:last]
			idx--
		}
	}
	l.slot = end
	return l.live > 0 && l.err == nil
}

// retire validates the packets past instance k's horizon, folds its
// metric accumulators into its Metrics and records the final Result.
// residual is the number of packets the instance still holds at its
// horizon, which the Validate-mode conservation check accounts for.
func (l *lockstep) retire(k int32, residual int64) instStatus {
	if err := l.check[k].AcceptAll(l.seqs[k][l.next[k]:]); err != nil {
		l.err = switchsim.BadSequence(err)
		return instErr
	}
	hm := &l.hot[k]
	r := &l.res[k]
	m := &r.M
	m.Arrived, m.ArrivedValue = hm.arrived, hm.arrivedVal
	m.Accepted, m.AcceptedValue = hm.accepted, hm.acceptedVal
	m.Rejected, m.RejectedValue = hm.rejected, hm.rejectedVal
	m.Transferred, m.TransferredCross = hm.transferred, hm.transferredCross
	m.Sent, m.Benefit = hm.sent, hm.benefit
	m.PreemptedInput, m.PreemptedInputValue = hm.preemptedIn, hm.preemptedInVal
	m.PreemptedCross, m.PreemptedCrossValue = hm.preemptedCross, hm.preemptedCrossVal
	m.PreemptedOutput, m.PreemptedOutputValue = hm.preemptedOut, hm.preemptedOutVal
	m.InputOccupSum, m.CrossOccupSum, m.OutputOccupSum = hm.inOccup, hm.crossOccup, hm.outOccup
	m.AddSlotSamples(hm.sampled)
	if l.cfg.RecordSeries {
		m.SlotBenefit = l.series[k]
	}
	if l.cfg.Validate {
		preempted := m.PreemptedInput + m.PreemptedCross + m.PreemptedOutput
		if m.Accepted != m.Sent+preempted+residual {
			l.err = fmt.Errorf("fleet: instance %d: conservation violated: accepted=%d sent=%d preempted=%d residual=%d",
				k, m.Accepted, m.Sent, preempted, residual)
			return instErr
		}
	}
	r.Policy, r.Cfg, r.Slots = l.policy, l.cfg, l.horizon[k]
	l.results[k] = r
	l.live--
	return instRetired
}

// Results returns one Result per loaded instance (in input order) once
// every instance has retired. It errors if the fleet is still running or a
// stepping error is pending. The backing array is reused by the next
// Reset, so callers keeping Results across batches must copy.
func (l *lockstep) Results() ([]*switchsim.Result, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.live > 0 {
		return nil, fmt.Errorf("fleet: %d instances still live", l.live)
	}
	return l.results[:l.cur], nil
}

func (l *lockstep) batchCap() int                    { return l.batch }
func (l *lockstep) passes() int64                    { return l.passCount }
func (l *lockstep) jumpTally() (jumped, jumps int64) { return l.jumped, l.jumps }

// drain advances one output ring across `jump` arrival-free drain-only
// slots after slot T in closed form, mirroring the scalar engines'
// quiesce: the queue transmits one head packet per slot until it empties,
// and the occupancy integral gains Σ_{x=1..min(jump,L)} (L-x). lat and
// series are nil when latency or the per-slot series is not recorded. It
// returns the number of packets sent.
func drain(ring []pkt, h *qhdr, capM int32, hm *hotCtr, lat *switchsim.Metrics, series []int64, T, jump int) int32 {
	l := int(h.n)
	d := min(l, jump)
	for x := 1; x <= d; x++ {
		p := ring[h.head]
		h.head = (h.head + 1) & capM
		h.n--
		hm.sent++
		hm.benefit += p.v
		if lat != nil {
			lat.RecordLatency(T + x - int(p.a))
		}
		if series != nil {
			series[T+x] += p.v
		}
	}
	hm.outOccup += int64(d)*int64(l) - int64(d)*int64(d+1)/2
	return int32(d)
}

// sleeper is one quiescent instance waiting for its next arrival slot.
type sleeper struct {
	wake int
	k    int32
}

// sleepPush adds s to the min-heap (ordered by wake slot) in place.
func sleepPush(h []sleeper, s sleeper) []sleeper {
	h = append(h, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].wake <= h[i].wake {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// sleepPop removes and returns the earliest-waking sleeper.
func sleepPop(h []sleeper) ([]sleeper, sleeper) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].wake < h[s].wake {
			s = l
		}
		if r < len(h) && h[r].wake < h[s].wake {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
}
