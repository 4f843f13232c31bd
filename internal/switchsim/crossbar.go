package switchsim

import (
	"fmt"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/packet"
	"qswitch/internal/queue"
)

// CrossbarPolicy is the decision interface for buffered crossbar switches.
// Each scheduling cycle is split into an input subphase (moves from input
// queues to crosspoint queues, at most one per input port) and an output
// subphase (moves from crosspoint queues to output queues, at most one per
// output port), per the paper's model (§1.3).
type CrossbarPolicy interface {
	// Name identifies the policy in results.
	Name() string
	// Disciplines returns the queue orderings for input, crosspoint and
	// output queues.
	Disciplines() (input, cross, output queue.Discipline)
	// Reset prepares the policy for a fresh run.
	Reset(cfg Config)
	// Admit decides the fate of an arriving packet.
	Admit(sw *Crossbar, p packet.Packet) AdmitAction
	// InputSubphase returns transfers Q_{In,Out} -> C_{In,Out}; at most
	// one per input port (Out may repeat across different inputs). The
	// engine consumes the slice before the next policy call, so a
	// reusable scratch buffer may be returned.
	InputSubphase(sw *Crossbar, slot, cycle int) []Transfer
	// OutputSubphase returns transfers C_{In,Out} -> Q_Out; at most one
	// per output port.
	OutputSubphase(sw *Crossbar, slot, cycle int) []Transfer
}

// Crossbar is the state of a buffered crossbar switch.
//
// Like CIOQ it maintains an incrementally-updated occupancy index over
// its three queue layers, so subphase policies touch only occupied
// queues. Value-ordered input and crosspoint queues also get head-value
// lanes. Policies must treat the index and the lanes as read-only.
type Crossbar struct {
	Cfg Config
	// IQ[i][j]: input queue at port i for output j.
	IQ [][]*queue.Queue
	// XQ[i][j]: crosspoint queue C_ij.
	XQ [][]*queue.Queue
	// OQ[j]: output queue at port j.
	OQ []*queue.Queue
	M  Metrics

	// VOQ.Row(i) is the mask over outputs j with IQ[i][j] non-empty.
	VOQ bitset.Matrix
	// XFree.Row(i) is the mask over outputs j with XQ[i][j] not full.
	XFree bitset.Matrix
	// XBusyByOut.Row(j) is the mask over inputs i with XQ[i][j] non-empty.
	XBusyByOut bitset.Matrix
	// OutFree is the mask over outputs j with OQ[j] not full.
	OutFree bitset.Mask
	// OutBusy is the mask over outputs j with OQ[j] non-empty.
	OutBusy bitset.Mask
	// IQHead[i*Outputs+j] is the value of IQ[i][j]'s head packet, 0 when
	// the queue is empty; nil unless the input queues are ByValue.
	IQHead []int64
	// XHead[j*Inputs+i] is the value of XQ[i][j]'s head packet, stored
	// transposed so that one output's crosspoints are adjacent; 0 when
	// empty, nil unless the crosspoint queues are ByValue.
	XHead []int64

	inCount    int64 // packets across all input queues
	crossCount int64 // packets across all crosspoint queues
	outCount   int64 // packets across all output queues

	usedIn, usedOut []int
	epochIn         int
	epochOut        int
}

// NewCrossbar builds an empty buffered crossbar switch.
func NewCrossbar(cfg Config, inDisc, crossDisc, outDisc queue.Discipline) *Crossbar {
	sw := &Crossbar{Cfg: cfg}
	n, m := cfg.Inputs, cfg.Outputs
	iqs := queue.NewBatch(n*m, cfg.InputBuf, inDisc)
	xqs := queue.NewBatch(n*m, cfg.CrossBuf, crossDisc)
	ptrs := make([]*queue.Queue, 2*n*m)
	for x := 0; x < n*m; x++ {
		ptrs[x] = &iqs[x]
		ptrs[n*m+x] = &xqs[x]
	}
	sw.IQ = make([][]*queue.Queue, n)
	sw.XQ = make([][]*queue.Queue, n)
	for i := 0; i < n; i++ {
		sw.IQ[i] = ptrs[i*m : (i+1)*m : (i+1)*m]
		sw.XQ[i] = ptrs[n*m+i*m : n*m+(i+1)*m : n*m+(i+1)*m]
	}
	oqs := queue.NewBatch(m, cfg.OutputBuf, outDisc)
	sw.OQ = make([]*queue.Queue, m)
	for j := range sw.OQ {
		sw.OQ[j] = &oqs[j]
	}
	sw.VOQ = bitset.NewMatrix(cfg.Inputs, cfg.Outputs)
	sw.XFree = bitset.NewMatrix(cfg.Inputs, cfg.Outputs)
	for i := 0; i < cfg.Inputs; i++ {
		sw.XFree.Row(i).Fill(cfg.Outputs)
	}
	sw.XBusyByOut = bitset.NewMatrix(cfg.Outputs, cfg.Inputs)
	sw.OutFree = bitset.New(cfg.Outputs)
	sw.OutFree.Fill(cfg.Outputs)
	sw.OutBusy = bitset.New(cfg.Outputs)
	sw.usedIn = make([]int, cfg.Inputs)
	sw.usedOut = make([]int, cfg.Outputs)
	var lanes []int64
	if inDisc == queue.ByValue || crossDisc == queue.ByValue {
		lanes = make([]int64, 2*n*m) // one allocation for both lanes
	}
	if inDisc == queue.ByValue {
		sw.IQHead = lanes[: n*m : n*m]
	}
	if crossDisc == queue.ByValue {
		sw.XHead = lanes[n*m:]
	}
	return sw
}

// QueuedPackets returns the number of packets currently stored anywhere.
func (sw *Crossbar) QueuedPackets() int64 { return sw.inCount + sw.crossCount + sw.outCount }

// OutputBacklog returns the length of the longest output queue — the
// number of drain-only slots needed to empty the switch once the input
// and crosspoint layers are empty and no further arrivals occur.
func (sw *Crossbar) OutputBacklog() int {
	backlog := 0
	for _, q := range sw.OQ {
		backlog = max(backlog, q.Len())
	}
	return backlog
}

func (sw *Crossbar) checkInvariants() error {
	for i := range sw.IQ {
		for j := range sw.IQ[i] {
			if err := sw.IQ[i][j].CheckInvariants(); err != nil {
				return fmt.Errorf("IQ[%d][%d]: %w", i, j, err)
			}
			if err := sw.XQ[i][j].CheckInvariants(); err != nil {
				return fmt.Errorf("XQ[%d][%d]: %w", i, j, err)
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

// checkIndex verifies the occupancy bitmasks and counters against the
// actual queue contents (full rescan; validation mode only).
func (sw *Crossbar) checkIndex() error {
	var in, cross, out int64
	for i := range sw.IQ {
		for j := range sw.IQ[i] {
			in += int64(sw.IQ[i][j].Len())
			cross += int64(sw.XQ[i][j].Len())
			if got, want := sw.VOQ.Row(i).Test(j), !sw.IQ[i][j].Empty(); got != want {
				return fmt.Errorf("index: VOQ[%d] bit %d = %v, queue empty=%v", i, j, got, !want)
			}
			if got, want := sw.XFree.Row(i).Test(j), !sw.XQ[i][j].Full(); got != want {
				return fmt.Errorf("index: XFree[%d] bit %d = %v, queue full=%v", i, j, got, !want)
			}
			if got, want := sw.XBusyByOut.Row(j).Test(i), !sw.XQ[i][j].Empty(); got != want {
				return fmt.Errorf("index: XBusyByOut[%d] bit %d = %v, queue empty=%v", j, i, got, !want)
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
	if in != sw.inCount || cross != sw.crossCount || out != sw.outCount {
		return fmt.Errorf("index: counters (in=%d,cross=%d,out=%d) but queues hold (%d,%d,%d)",
			sw.inCount, sw.crossCount, sw.outCount, in, cross, out)
	}
	n, m := sw.Cfg.Inputs, sw.Cfg.Outputs
	if sw.IQHead != nil {
		if err := checkHeadLane("IQ", sw.IQHead, n, m, false, func(i, j int) int64 {
			h, _ := sw.IQ[i][j].Head()
			return h.Value
		}); err != nil {
			return err
		}
	}
	if sw.XHead == nil {
		return nil
	}
	return checkHeadLane("XQ", sw.XHead, m, n, true, func(j, i int) int64 {
		h, _ := sw.XQ[i][j].Head()
		return h.Value
	})
}

func (sw *Crossbar) admit(p packet.Packet, action AdmitAction) error {
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
		sw.VOQ.Row(p.In).Set(p.Out)
		sw.inCount++
		sw.noteIQHead(p.In, p.Out)
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
			// Replacement: occupancy unchanged.
			sw.M.PreemptedInput++
			sw.M.PreemptedInputValue += victim.Value
		} else {
			sw.VOQ.Row(p.In).Set(p.Out)
			sw.inCount++
		}
		sw.noteIQHead(p.In, p.Out)
		return nil
	default:
		return fmt.Errorf("switchsim: unknown admit action %d", action)
	}
}

// noteIQHead refreshes IQ[i][j]'s head-value lane entry after the queue
// changed; FIFO input queues keep no lane.
func (sw *Crossbar) noteIQHead(i, j int) {
	if sw.IQHead != nil {
		h, _ := sw.IQ[i][j].Head()
		sw.IQHead[i*sw.Cfg.Outputs+j] = h.Value
	}
}

// noteXHead refreshes XQ[i][j]'s head-value lane entry after the queue
// changed. Only ByValue crosspoints keep a lane; callers test XHead first.
func (sw *Crossbar) noteXHead(i, j int) {
	h, _ := sw.XQ[i][j].Head()
	sw.XHead[j*sw.Cfg.Inputs+i] = h.Value
}

// executeInputSubphase moves head packets Q_ij -> C_ij with at most one
// transfer per input port.
func (sw *Crossbar) executeInputSubphase(ts []Transfer) error {
	sw.epochIn++
	for _, t := range ts {
		if t.In < 0 || t.In >= sw.Cfg.Inputs || t.Out < 0 || t.Out >= sw.Cfg.Outputs {
			return fmt.Errorf("switchsim: input-subphase transfer (%d->%d) out of range", t.In, t.Out)
		}
		if sw.usedIn[t.In] == sw.epochIn {
			return fmt.Errorf("switchsim: two input-subphase transfers from input %d", t.In)
		}
		sw.usedIn[t.In] = sw.epochIn
	}
	for _, t := range ts {
		src := sw.IQ[t.In][t.Out]
		dst := sw.XQ[t.In][t.Out]
		p, ok := src.PopHead()
		if !ok {
			return fmt.Errorf("switchsim: input-subphase transfer from empty IQ[%d][%d]", t.In, t.Out)
		}
		if src.Empty() {
			sw.VOQ.Row(t.In).Clear(t.Out)
		}
		sw.inCount--
		sw.noteIQHead(t.In, t.Out)
		if (t.PreemptIfFull || t.PreemptMinIfFull) && dst.Full() {
			var victim packet.Packet
			var preempted, accepted bool
			if t.PreemptMinIfFull {
				victim, preempted, accepted = dst.PushPreemptMin(p)
			} else {
				victim, preempted, accepted = dst.PushPreempt(p)
			}
			if !accepted {
				return fmt.Errorf("switchsim: transfer of %v into C[%d][%d] rejected (blocker %v not worse)", p, t.In, t.Out, blocker(dst, t))
			}
			if preempted {
				// Replacement: the crosspoint stays full and non-empty.
				sw.M.PreemptedCross++
				sw.M.PreemptedCrossValue += victim.Value
			}
		} else if err := dst.Push(p); err != nil {
			return fmt.Errorf("switchsim: transfer of %v into full C[%d][%d]", p, t.In, t.Out)
		} else {
			sw.XBusyByOut.Row(t.Out).Set(t.In)
			if dst.Full() {
				sw.XFree.Row(t.In).Clear(t.Out)
			}
			sw.crossCount++
		}
		if sw.XHead != nil {
			sw.noteXHead(t.In, t.Out)
		}
		sw.M.Transferred++
	}
	return nil
}

// executeOutputSubphase moves head packets C_ij -> Q_j with at most one
// transfer per output port.
func (sw *Crossbar) executeOutputSubphase(ts []Transfer) error {
	sw.epochOut++
	for _, t := range ts {
		if t.In < 0 || t.In >= sw.Cfg.Inputs || t.Out < 0 || t.Out >= sw.Cfg.Outputs {
			return fmt.Errorf("switchsim: output-subphase transfer (%d->%d) out of range", t.In, t.Out)
		}
		if sw.usedOut[t.Out] == sw.epochOut {
			return fmt.Errorf("switchsim: two output-subphase transfers to output %d", t.Out)
		}
		sw.usedOut[t.Out] = sw.epochOut
	}
	for _, t := range ts {
		src := sw.XQ[t.In][t.Out]
		dst := sw.OQ[t.Out]
		p, ok := src.PopHead()
		if !ok {
			return fmt.Errorf("switchsim: output-subphase transfer from empty C[%d][%d]", t.In, t.Out)
		}
		if src.Empty() {
			sw.XBusyByOut.Row(t.Out).Clear(t.In)
		}
		sw.XFree.Row(t.In).Set(t.Out)
		sw.crossCount--
		if sw.XHead != nil {
			sw.noteXHead(t.In, t.Out)
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
				return fmt.Errorf("switchsim: transfer of %v into OQ[%d] rejected (blocker %v not worse)", p, t.Out, blocker(dst, t))
			}
			if preempted {
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
		sw.M.TransferredCross++
	}
	return nil
}

func (sw *Crossbar) transmit(slot int) {
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

func (sw *Crossbar) sampleOccupancy() {
	sw.M.InputOccupSum += sw.inCount
	sw.M.CrossOccupSum += sw.crossCount
	sw.M.OutputOccupSum += sw.outCount
	sw.M.slotsSampled++
}

// quiesce advances the crossbar across k arrival-free slots during which
// neither subphase can produce a transfer (inCount == crossCount == 0), in
// closed form; see (*CIOQ).quiesce for the accounting. Crosspoint slots
// with a backlog are never jumped: which crosspoint an output pulls from
// is a policy decision, so those slots run densely until the crosspoint
// layer empties.
func (sw *Crossbar) quiesce(slot, k int) {
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

// crossbarEngine is the one buffered-crossbar slot loop, shared by
// RunCrossbar, RunCrossbarStream and CrossbarStepper; see cioqEngine.
type crossbarEngine struct {
	pol  CrossbarPolicy
	sw   *Crossbar
	idle IdleAdvancer // nil when every slot must run densely

	jumps, jumped int64 // quiescent jumps taken and slots they skipped
}

func newCrossbarEngine(cfg Config, pol CrossbarPolicy) crossbarEngine {
	inDisc, crossDisc, outDisc := pol.Disciplines()
	e := crossbarEngine{pol: pol, sw: NewCrossbar(cfg, inDisc, crossDisc, outDisc)}
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
// scheduling cycles (input then output subphase), the transmission phase
// and the occupancy sample.
func (e *crossbarEngine) step(slot int) error {
	sw := e.sw
	for cycle := 0; cycle < sw.Cfg.Speedup; cycle++ {
		if err := sw.executeInputSubphase(e.pol.InputSubphase(sw, slot, cycle)); err != nil {
			return err
		}
		if err := sw.executeOutputSubphase(e.pol.OutputSubphase(sw, slot, cycle)); err != nil {
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
// with the input and crosspoint layers empty no subphase can produce a
// transfer, so that stretch is pure output drain (or fully idle).
func (e *crossbarEngine) quiescent() bool {
	return e.idle != nil && e.sw.inCount == 0 && e.sw.crossCount == 0
}

// jump advances a quiescent switch across the k arrival-free slots after
// `slot` in closed form.
func (e *crossbarEngine) jump(slot, k int) error {
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
func (e *crossbarEngine) run(arr *arrivals) (*Result, error) {
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
	if err := arr.finish(); err != nil {
		return nil, err
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
func (e *crossbarEngine) result(slots int) (*Result, error) {
	sw := e.sw
	if sw.Cfg.Validate {
		if err := sw.M.conservationCheck(sw.QueuedPackets()); err != nil {
			return nil, err
		}
	}
	return &Result{Policy: e.pol.Name(), Cfg: sw.Cfg, Slots: slots, M: sw.M}, nil
}

// RunCrossbar simulates a crossbar policy on the sequence, on a registered
// columnar kernel when one serves the policy and geometry and on the
// reference slot loop otherwise; see RunCIOQ.
func RunCrossbar(cfg Config, pol CrossbarPolicy, seq packet.Sequence) (*Result, error) {
	if err := cfg.Check(true); err != nil {
		return nil, err
	}
	if res, ok, err := runKernel(crossbarKernel, cfg, pol, seq); ok {
		return res, err
	}
	arr, err := seqArrivals(cfg, seq)
	if err != nil {
		return nil, err
	}
	e := newCrossbarEngine(cfg, pol)
	return e.run(&arr)
}

// RunCrossbarStream is RunCrossbar on a pulled arrival stream; see
// RunCIOQStream.
func RunCrossbarStream(cfg Config, pol CrossbarPolicy, src packet.ArrivalStream) (*Result, error) {
	if err := cfg.Check(true); err != nil {
		return nil, err
	}
	arr, err := streamArrivals(cfg, src)
	if err != nil {
		return nil, err
	}
	e := newCrossbarEngine(cfg, pol)
	return e.run(&arr)
}
