package switchsim

import (
	"fmt"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
)

// CIOQPolicy is the decision interface for CIOQ switches. The engine calls
// Admit once per arriving packet and Schedule once per scheduling cycle;
// transmission is not a policy decision: the engine always transmits the
// head packet of every non-empty output queue (all the paper's algorithms,
// and WLOG the offline optimum, are work-conserving and greedy at outputs).
type CIOQPolicy interface {
	// Name identifies the policy in results.
	Name() string
	// Disciplines returns the queue orderings the policy requires for
	// input and output queues (FIFO for unit-value algorithms, ByValue
	// for weighted ones).
	Disciplines() (input, output queue.Discipline)
	// Reset prepares the policy for a fresh run on the given config.
	Reset(cfg Config)
	// Admit decides the fate of an arriving packet.
	Admit(sw *CIOQ, p packet.Packet) AdmitAction
	// Schedule returns the set of transfers for scheduling cycle
	// `cycle` (0-based) of slot `slot`. The set must form a matching:
	// at most one transfer out of each input port and at most one into
	// each output port. The engine consumes the slice before the next
	// policy call, so policies may return a reusable scratch buffer.
	Schedule(sw *CIOQ, slot, cycle int) []Transfer
}

// CIOQ is the state of a combined input/output queued switch.
//
// Alongside the queues it maintains an incrementally-updated occupancy
// index — bitmasks over ports, kept exact by the engine on every push,
// pop and preemption — that lets policies enumerate the eligible edges
// {(i,j) : Q_ij non-empty, Q_j not full} in time proportional to the
// number of occupied queues instead of scanning all Inputs×Outputs pairs.
// When the input queues are value-ordered (queue.ByValue) it also keeps
// their head values in a flat lane and, for up to 64×64 ports, files the
// queues by head value (IQIndex). Policies must treat the index as
// read-only.
type CIOQ struct {
	Cfg Config
	// IQ[i][j] is the input queue at port i holding packets for output j.
	IQ [][]*queue.Queue
	// OQ[j] is the queue at output port j.
	OQ []*queue.Queue
	M  Metrics

	// VOQ.Row(i) is the mask over outputs j with IQ[i][j] non-empty.
	VOQ bitset.Matrix
	// VOQByOut.Row(j) is the transpose: inputs i with IQ[i][j] non-empty.
	VOQByOut bitset.Matrix
	// OutFree is the mask over outputs j with OQ[j] not full.
	OutFree bitset.Mask
	// OutBusy is the mask over outputs j with OQ[j] non-empty.
	OutBusy bitset.Mask
	// IQHead[i*Outputs+j] is the value of IQ[i][j]'s head packet, 0 when
	// the queue is empty; nil unless the input queues are ByValue.
	IQHead []int64
	// IQIndex files IQ[i][j] under the value IQHead[i*Outputs+j], row i,
	// column j; kept when IQHead is and both port counts are at most 64.
	IQIndex HeadIndex

	inCount  int64 // packets across all input queues
	outCount int64 // packets across all output queues

	// Matching-validation scratch: epoch-stamped marks avoid clearing
	// per cycle.
	usedIn, usedOut []int
	epoch           int
}

// NewCIOQ builds an empty switch with the queue disciplines requested by
// the policy.
func NewCIOQ(cfg Config, inDisc, outDisc queue.Discipline) *CIOQ {
	sw := &CIOQ{Cfg: cfg}
	n, m := cfg.Inputs, cfg.Outputs
	iqs := queue.NewBatch(n*m, cfg.InputBuf, inDisc)
	iqPtrs := make([]*queue.Queue, n*m)
	for x := range iqPtrs {
		iqPtrs[x] = &iqs[x]
	}
	sw.IQ = make([][]*queue.Queue, n)
	for i := range sw.IQ {
		sw.IQ[i] = iqPtrs[i*m : (i+1)*m : (i+1)*m]
	}
	oqs := queue.NewBatch(m, cfg.OutputBuf, outDisc)
	sw.OQ = make([]*queue.Queue, m)
	for j := range sw.OQ {
		sw.OQ[j] = &oqs[j]
	}
	sw.VOQ = bitset.NewMatrix(cfg.Inputs, cfg.Outputs)
	sw.VOQByOut = bitset.NewMatrix(cfg.Outputs, cfg.Inputs)
	sw.OutFree = bitset.New(cfg.Outputs)
	sw.OutFree.Fill(cfg.Outputs)
	sw.OutBusy = bitset.New(cfg.Outputs)
	sw.usedIn = make([]int, cfg.Inputs)
	sw.usedOut = make([]int, cfg.Outputs)
	if inDisc == queue.ByValue {
		sw.IQHead = make([]int64, n*m)
		if indexable(n, m) {
			sw.IQIndex.init(n)
		}
	}
	return sw
}

// QueuedPackets returns the number of packets currently stored anywhere in
// the switch.
func (sw *CIOQ) QueuedPackets() int64 { return sw.inCount + sw.outCount }

// InputQueued returns the number of packets currently stored in the input
// virtual output queues. Zero means the switch is quiescent: no scheduling
// decision can move a packet, and any remaining backlog sits in the output
// queues draining policy-independently.
func (sw *CIOQ) InputQueued() int64 { return sw.inCount }

// OutputBacklog returns the length of the longest output queue — the
// number of drain-only slots needed to empty the switch once InputQueued
// reaches zero and no further arrivals occur.
func (sw *CIOQ) OutputBacklog() int {
	backlog := 0
	for _, q := range sw.OQ {
		backlog = max(backlog, q.Len())
	}
	return backlog
}

func (sw *CIOQ) checkInvariants() error {
	for i := range sw.IQ {
		for j := range sw.IQ[i] {
			if err := sw.IQ[i][j].CheckInvariants(); err != nil {
				return fmt.Errorf("IQ[%d][%d]: %w", i, j, err)
			}
		}
	}
	for j := range sw.OQ {
		if err := sw.OQ[j].CheckInvariants(); err != nil {
			return fmt.Errorf("OQ[%d]: %w", j, err)
		}
	}
	return sw.checkIndex()
}

// checkIndex verifies that the occupancy bitmasks and counters agree with
// the actual queue contents (full rescan; validation mode only).
func (sw *CIOQ) checkIndex() error {
	var in, out int64
	for i := range sw.IQ {
		for j := range sw.IQ[i] {
			in += int64(sw.IQ[i][j].Len())
			if got, want := sw.VOQ.Row(i).Test(j), !sw.IQ[i][j].Empty(); got != want {
				return fmt.Errorf("index: VOQ[%d] bit %d = %v, queue empty=%v", i, j, got, !want)
			}
			if got, want := sw.VOQByOut.Row(j).Test(i), !sw.IQ[i][j].Empty(); got != want {
				return fmt.Errorf("index: VOQByOut[%d] bit %d = %v, queue empty=%v", j, i, got, !want)
			}
		}
	}
	for j := range sw.OQ {
		out += int64(sw.OQ[j].Len())
		if got, want := sw.OutFree.Test(j), !sw.OQ[j].Full(); got != want {
			return fmt.Errorf("index: OutFree bit %d = %v, queue full=%v", j, got, !want)
		}
		if got, want := sw.OutBusy.Test(j), !sw.OQ[j].Empty(); got != want {
			return fmt.Errorf("index: OutBusy bit %d = %v, queue empty=%v", j, got, !want)
		}
	}
	if in != sw.inCount || out != sw.outCount {
		return fmt.Errorf("index: counters (in=%d,out=%d) but queues hold (%d,%d)", sw.inCount, sw.outCount, in, out)
	}
	if sw.IQHead == nil {
		return nil
	}
	n, m := sw.Cfg.Inputs, sw.Cfg.Outputs
	if err := checkHeadLane("IQ", sw.IQHead, n, m, false, func(i, j int) int64 {
		h, _ := sw.IQ[i][j].Head()
		return h.Value
	}); err != nil {
		return err
	}
	return sw.IQIndex.check("IQ", sw.IQHead, n, m, false)
}

// admit executes an admission decision, updating metrics and the index.
func (sw *CIOQ) admit(p packet.Packet, action AdmitAction) error {
	sw.M.Arrived++
	sw.M.ArrivedValue += p.Value
	q := sw.IQ[p.In][p.Out]
	switch action {
	case Reject:
		sw.M.Rejected++
		sw.M.RejectedValue += p.Value
		return nil
	case Accept:
		if err := q.Push(p); err != nil {
			return fmt.Errorf("switchsim: policy accepted %v into full IQ[%d][%d]", p, p.In, p.Out)
		}
		sw.noteIQPush(p.In, p.Out)
		if sw.IQHead != nil {
			sw.noteIQHead(p.In, p.Out)
		}
		sw.M.Accepted++
		sw.M.AcceptedValue += p.Value
		return nil
	case AcceptPreempt, AcceptPreemptMin:
		var victim packet.Packet
		var preempted, accepted bool
		if action == AcceptPreemptMin {
			victim, preempted, accepted = q.PushPreemptMin(p)
		} else {
			victim, preempted, accepted = q.PushPreempt(p)
		}
		if !accepted {
			sw.M.Rejected++
			sw.M.RejectedValue += p.Value
			return nil
		}
		sw.M.Accepted++
		sw.M.AcceptedValue += p.Value
		if preempted {
			// One packet replaced another: occupancy unchanged.
			sw.M.PreemptedInput++
			sw.M.PreemptedInputValue += victim.Value
		} else {
			sw.noteIQPush(p.In, p.Out)
		}
		if sw.IQHead != nil {
			sw.noteIQHead(p.In, p.Out)
		}
		return nil
	default:
		return fmt.Errorf("switchsim: unknown admit action %d", action)
	}
}

// noteIQPush records a net insertion into IQ[i][j].
func (sw *CIOQ) noteIQPush(i, j int) {
	sw.VOQ.Row(i).Set(j)
	sw.VOQByOut.Row(j).Set(i)
	sw.inCount++
}

// noteIQPop records a removal from IQ[i][j].
func (sw *CIOQ) noteIQPop(i, j int) {
	if sw.IQ[i][j].Empty() {
		sw.VOQ.Row(i).Clear(j)
		sw.VOQByOut.Row(j).Clear(i)
	}
	sw.inCount--
}

// noteIQHead refreshes IQ[i][j]'s entry in the head-value lane and index
// after the queue changed. Only ByValue grids keep them, so callers test
// IQHead first and FIFO runs pay one predictable branch.
func (sw *CIOQ) noteIQHead(i, j int) {
	h, _ := sw.IQ[i][j].Head()
	k := i*sw.Cfg.Outputs + j
	if old := sw.IQHead[k]; old != h.Value {
		sw.IQHead[k] = h.Value
		sw.IQIndex.move(i, j, old, h.Value)
	}
}

// executeTransfers applies one scheduling cycle's matching, enforcing the
// matching property and capacities.
func (sw *CIOQ) executeTransfers(ts []Transfer) error {
	sw.epoch++
	for _, t := range ts {
		if t.In < 0 || t.In >= sw.Cfg.Inputs || t.Out < 0 || t.Out >= sw.Cfg.Outputs {
			return fmt.Errorf("switchsim: transfer (%d->%d) out of range", t.In, t.Out)
		}
		if sw.usedIn[t.In] == sw.epoch {
			return fmt.Errorf("switchsim: matching violation: two transfers from input %d", t.In)
		}
		if sw.usedOut[t.Out] == sw.epoch {
			return fmt.Errorf("switchsim: matching violation: two transfers to output %d", t.Out)
		}
		sw.usedIn[t.In], sw.usedOut[t.Out] = sw.epoch, sw.epoch
	}
	for _, t := range ts {
		src := sw.IQ[t.In][t.Out]
		dst := sw.OQ[t.Out]
		p, ok := src.PopHead()
		if !ok {
			return fmt.Errorf("switchsim: transfer from empty IQ[%d][%d]", t.In, t.Out)
		}
		sw.noteIQPop(t.In, t.Out)
		if sw.IQHead != nil {
			sw.noteIQHead(t.In, t.Out)
		}
		if (t.PreemptIfFull || t.PreemptMinIfFull) && dst.Full() {
			var victim packet.Packet
			var preempted, accepted bool
			if t.PreemptMinIfFull {
				victim, preempted, accepted = dst.PushPreemptMin(p)
			} else {
				victim, preempted, accepted = dst.PushPreempt(p)
			}
			if !accepted {
				return fmt.Errorf("switchsim: transfer of %v into OQ[%d] rejected (victim %v not worse)", p, t.Out, victim)
			}
			if preempted {
				// Replacement: the queue stays full and non-empty.
				sw.M.PreemptedOutput++
				sw.M.PreemptedOutputValue += victim.Value
			}
		} else if err := dst.Push(p); err != nil {
			return fmt.Errorf("switchsim: transfer of %v into full OQ[%d]", p, t.Out)
		} else {
			sw.OutBusy.Set(t.Out)
			if dst.Full() {
				sw.OutFree.Clear(t.Out)
			}
			sw.outCount++
		}
		sw.M.Transferred++
	}
	return nil
}

// transmit performs the transmission phase of slot `slot`, visiting only
// the non-empty output queues via the occupancy mask.
func (sw *CIOQ) transmit(slot int) {
	for w, word := range sw.OutBusy {
		for word != 0 {
			j := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			p, _ := sw.OQ[j].PopHead()
			sw.outCount--
			sw.OutFree.Set(j)
			if sw.OQ[j].Empty() {
				sw.OutBusy.Clear(j)
			}
			sw.M.Sent++
			sw.M.Benefit += p.Value
			if sw.Cfg.RecordLatency {
				sw.M.recordLatency(slot - p.Arrival)
			}
			if sw.Cfg.RecordSeries {
				sw.M.SlotBenefit[slot] += p.Value
			}
		}
	}
}

func (sw *CIOQ) sampleOccupancy() {
	sw.M.InputOccupSum += sw.inCount
	sw.M.OutputOccupSum += sw.outCount
	sw.M.slotsSampled++
}

// quiesce advances the switch across k arrival-free slots during which no
// scheduling transfer is possible (inCount == 0), in closed form: each
// non-empty output queue transmits one head packet per slot until it
// empties, and nothing else moves. The caller has just finished `slot`, so
// the skipped transmissions happen at slots slot+1 .. slot+k. Per-slot
// metrics (transmission counts, latency, series, occupancy integrals) are
// accumulated exactly as k dense iterations would have recorded them:
// after the x-th skipped slot an output that held L packets holds
// max(0, L-x), so its occupancy contribution is Σ_{x=1..min(k,L)} (L-x).
//
// Every output queue is non-full here — the slot just finished transmitted
// from each non-empty queue — so OutFree is already correct and only
// OutBusy needs clearing as queues empty. The switch is left in exactly
// the state a dense simulation of those k slots would produce.
func (sw *CIOQ) quiesce(slot, k int) {
	for w, word := range sw.OutBusy {
		for word != 0 {
			j := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			q := sw.OQ[j]
			l := q.Len()
			d := l
			if k < l {
				d = k
			}
			for x := 1; x <= d; x++ {
				p, _ := q.PopHead()
				sw.M.Sent++
				sw.M.Benefit += p.Value
				if sw.Cfg.RecordLatency {
					sw.M.recordLatency(slot + x - p.Arrival)
				}
				if sw.Cfg.RecordSeries {
					sw.M.SlotBenefit[slot+x] += p.Value
				}
			}
			sw.outCount -= int64(d)
			sw.M.OutputOccupSum += int64(d)*int64(l) - int64(d)*int64(d+1)/2
			if q.Empty() {
				sw.OutBusy.Clear(j)
			}
		}
	}
	sw.M.slotsSampled += int64(k)
}

// cioqEngine is the one CIOQ slot loop. RunCIOQ, RunCIOQStream and
// CIOQStepper are front ends that differ only in where a slot's arrivals
// come from; the set-up, the per-slot body and the quiescent jump are here.
type cioqEngine struct {
	pol CIOQPolicy
	sw  *CIOQ
	// idle is the policy's IdleAdvancer when quiescent stretches may be
	// jumped; nil (Config.Dense, or a policy without the capability) makes
	// every slot run densely.
	idle IdleAdvancer

	jumps, jumped int64 // quiescent jumps taken and slots they skipped
}

// newCIOQEngine builds the switch and resets the policy for a run on cfg,
// which the caller has checked.
func newCIOQEngine(cfg Config, pol CIOQPolicy) cioqEngine {
	inDisc, outDisc := pol.Disciplines()
	e := cioqEngine{pol: pol, sw: NewCIOQ(cfg, inDisc, outDisc)}
	if cfg.RecordLatency && cfg.StreamMetrics {
		e.sw.M.EnableLatencySketch()
	}
	pol.Reset(cfg)
	if !cfg.Dense {
		e.idle, _ = pol.(IdleAdvancer)
	}
	return e
}

// step runs the rest of slot `slot` after its arrival phase: the speedup's
// scheduling cycles, the transmission phase and the occupancy sample.
func (e *cioqEngine) step(slot int) error {
	sw := e.sw
	for cycle := 0; cycle < sw.Cfg.Speedup; cycle++ {
		if err := sw.executeTransfers(e.pol.Schedule(sw, slot, cycle)); err != nil {
			return err
		}
	}
	if sw.Cfg.RecordSeries {
		growSeries(&sw.M, slot+1)
	}
	sw.transmit(slot)
	sw.sampleOccupancy()
	if sw.Cfg.Validate {
		if err := sw.checkInvariants(); err != nil {
			return fmt.Errorf("switchsim: slot %d: %w", slot, err)
		}
	}
	return nil
}

// quiescent reports whether the slots until the next arrival may be jumped:
// with no input-side packets no scheduling cycle can produce a transfer, so
// that stretch is pure output drain (possibly none at all, a fully idle
// gap).
func (e *cioqEngine) quiescent() bool { return e.idle != nil && e.sw.inCount == 0 }

// jump advances a quiescent switch across the k arrival-free slots after
// `slot` in closed form.
func (e *cioqEngine) jump(slot, k int) error {
	sw := e.sw
	if sw.Cfg.RecordSeries {
		growSeries(&sw.M, slot+1+k)
	}
	sw.quiesce(slot, k)
	e.idle.IdleAdvance(k)
	e.jumps++
	e.jumped += int64(k)
	if sw.Cfg.Validate {
		if err := sw.checkInvariants(); err != nil {
			return fmt.Errorf("switchsim: after quiescent jump to slot %d: %w", slot+k, err)
		}
	}
	return nil
}

// run simulates slots 0 .. horizon-1 with arrivals read from arr.
func (e *cioqEngine) run(arr *arrivals) (*Result, error) {
	sw := e.sw
	if sw.Cfg.RecordSeries {
		growSeries(&sw.M, arr.slots) // a fixed horizon sizes the series once
	}
	for slot := 0; !arr.done(slot); slot++ {
		for p := arr.peek(); p != nil && p.Arrival == slot; p = arr.peek() {
			if err := sw.admit(*p, e.pol.Admit(sw, *p)); err != nil {
				return nil, err
			}
			if err := arr.advance(); err != nil {
				return nil, err
			}
		}
		if err := e.step(slot); err != nil {
			return nil, err
		}
		if e.quiescent() {
			if k := arr.jumpTarget() - (slot + 1); k > 0 {
				if err := e.jump(slot, k); err != nil {
					return nil, err
				}
				slot += k
			}
		}
	}
	slots := arr.horizon()
	if sw.Cfg.RecordSeries {
		growSeries(&sw.M, slots)
	}
	res, err := e.result(slots)
	if err == nil {
		engineProbes.Load().RecordRun(int64(slots), e.jumped, e.jumps)
	}
	return res, err
}

// result closes a run of `slots` slots.
func (e *cioqEngine) result(slots int) (*Result, error) {
	sw := e.sw
	if sw.Cfg.Validate {
		if err := sw.M.conservationCheck(sw.QueuedPackets()); err != nil {
			return nil, err
		}
	}
	return &Result{Policy: e.pol.Name(), Cfg: sw.Cfg, Slots: slots, M: sw.M}, nil
}

// RunCIOQ simulates the policy on the sequence and returns the result.
// The sequence must be valid for the configured geometry.
func RunCIOQ(cfg Config, pol CIOQPolicy, seq packet.Sequence) (*Result, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	// Validation streams the whole sequence through the cache, so it runs
	// before the switch is built rather than evicting it.
	arr, err := seqArrivals(cfg, seq)
	if err != nil {
		return nil, err
	}
	e := newCIOQEngine(cfg, pol)
	return e.run(&arr)
}

// RunCIOQStream is RunCIOQ on a pulled arrival stream: packets are
// validated as they are pulled, with Sequence.Validate's error texts, and
// memory is bounded by the producer's window. With Config.Slots == 0 the
// horizon is last arrival + 1 + packet count, discovered when the stream
// ends.
func RunCIOQStream(cfg Config, pol CIOQPolicy, src packet.ArrivalStream) (*Result, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	arr, err := streamArrivals(cfg, src)
	if err != nil {
		return nil, err
	}
	e := newCIOQEngine(cfg, pol)
	return e.run(&arr)
}
