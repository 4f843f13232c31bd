package fleet

import (
	"fmt"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/core"
	"qswitch/internal/matching"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// The wide engine lifts weighted CIOQ PG beyond 64 ports: occupancy rows
// become bitset.Mask-backed multi-word rows, while the ≤64-port fleets keep
// their specialized single-uint64 kernels (and their pass-through transmit
// path) byte-for-byte. PG is the one policy family it batches; every other
// family above 64 ports runs on the scalar fallback. Both engines sit
// behind the runner dispatch in fleet.go; results are bit-identical to the
// scalar engine either way.

// maxWidePorts is the wide engine's port limit. It bounds the occupancy
// rows at 8 words; beyond it the runners fall back to scalar runs.
const maxWidePorts = 512

// wideCtr is the per-instance layer-occupancy counters of a wide
// instance (the multi-word masks live in their own flat arrays).
type wideCtr struct {
	in, out int32
}

// wideCIOQFleet is CIOQFleet with multi-word occupancy rows: B CIOQ
// instances under PG with 64 < ports <= maxWidePorts in columnar layout.
// The slot loop is the same admission / scheduling-cycles / transmission /
// quiescent jump pipeline; masks are bitset.Mask rows instead of single
// words, and transfers always do the ring store (no pass-through buffer,
// so passCount stays zero).
type wideCIOQFleet struct {
	cfg    switchsim.Config
	policy string
	beta   float64 // PG's resolved preemption factor
	batch  int
	cur    int
	n, m   int
	nm     int
	wm     int // words per output-indexed row
	icap   int
	ocap   int
	inBuf  int32
	outBuf int32

	// Columnar switch state: per-instance blocks inside flat arrays.
	voq     bitset.Mask // [(k*n+i)*wm + w]: outputs j with IQ(k,i,j) non-empty
	outFree bitset.Mask // [k*wm + w]
	outBusy bitset.Mask // [k*wm + w]
	st      []wideCtr   // [k]
	iq      []pkt
	iqHdr   []qhdr
	oq      []pkt
	oqHdr   []qhdr
	hot     []hotCtr

	// ID lanes; see CIOQFleet.
	iqID []int64
	oqID []int64

	ms      []switchsim.Metrics
	series  [][]int64
	results []*switchsim.Result

	seqs    []packet.Sequence
	next    []int
	horizon []int
	at      []int

	active []int32
	sleep  []sleeper
	slot   int
	live   int
	err    error

	view wideCIOQView

	// Matching scratch.
	edges   []matching.Edge
	sched   matching.WeightedScheduler
	matcher wideMatcher
}

// wideCIOQView is the per-instance working set of a wide CIOQ instance;
// see cioqView.
type wideCIOQView struct {
	f       *wideCIOQFleet
	st      *wideCtr
	hm      *hotCtr
	lat     *switchsim.Metrics
	voq     bitset.Mask
	outFree bitset.Mask
	outBusy bitset.Mask
	iqHdr   []qhdr
	iq      []pkt
	oqHdr   []qhdr
	oq      []pkt
	iqID    []int64
	oqID    []int64
	series  []int64

	n, m, nm       int
	wm             int
	icapM, ocapM   int32
	icap, ocap     int
	inBuf, outBuf  int32
	speedup        int
	recLat, recSer bool
}

// voqRow returns input i's occupancy row (outputs with queued packets).
func (v *wideCIOQView) voqRow(i int) bitset.Mask {
	return v.voq[i*v.wm : (i+1)*v.wm]
}

func (v *wideCIOQView) bind(f *wideCIOQFleet, k int) {
	v.f = f
	v.st = &f.st[k]
	v.hm = &f.hot[k]
	v.lat = &f.ms[k]
	v.voq = f.voq[k*f.n*f.wm : (k+1)*f.n*f.wm]
	v.outFree = f.outFree[k*f.wm : (k+1)*f.wm]
	v.outBusy = f.outBusy[k*f.wm : (k+1)*f.wm]
	v.iqHdr = f.iqHdr[k*f.nm : (k+1)*f.nm]
	v.iq = f.iq[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
	v.oqHdr = f.oqHdr[k*f.m : (k+1)*f.m]
	v.oq = f.oq[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
	if f.cfg.RecordSeries {
		v.series = f.series[k]
	}
	v.iqID = f.iqID[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
	v.oqID = f.oqID[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
}

// newWideCIOQFleet sizes a wide PG fleet of `batch` instances; see
// NewCIOQFleet. It serves geometries with maxPorts < ports <=
// maxWidePorts (smaller ones take the specialized single-word fleet).
func newWideCIOQFleet(cfg switchsim.Config, factory func() switchsim.CIOQPolicy, batch int) (*wideCIOQFleet, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("fleet: batch size %d < 1", batch)
	}
	pol := factory()
	if _, ok := pol.(*core.PG); !ok {
		return nil, fmt.Errorf("fleet: policy %q: %w", pol.Name(), ErrUnsupported)
	}
	if cfg.Inputs > maxWidePorts || cfg.Outputs > maxWidePorts {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, maxWidePorts, ErrUnsupported)
	}
	n, m := cfg.Inputs, cfg.Outputs
	f := &wideCIOQFleet{
		cfg: cfg, policy: pol.Name(), beta: cioqKernelFor(pol).(*pgKernel).beta,
		batch: batch, cur: batch,
		n: n, m: m, nm: n * m, wm: bitset.Words(m),
		icap: ceilPow2(cfg.InputBuf), ocap: ceilPow2(cfg.OutputBuf),
		inBuf: int32(cfg.InputBuf), outBuf: int32(cfg.OutputBuf),
	}
	f.voq = make(bitset.Mask, batch*n*f.wm)
	f.outFree = make(bitset.Mask, batch*f.wm)
	f.outBusy = make(bitset.Mask, batch*f.wm)
	f.st = make([]wideCtr, batch)
	f.iq = make([]pkt, batch*f.nm*f.icap)
	f.iqID = make([]int64, batch*f.nm*f.icap)
	f.iqHdr = make([]qhdr, batch*f.nm)
	f.oq = make([]pkt, batch*m*f.ocap)
	f.oqID = make([]int64, batch*m*f.ocap)
	f.oqHdr = make([]qhdr, batch*m)
	f.hot = make([]hotCtr, batch)
	f.ms = make([]switchsim.Metrics, batch)
	f.series = make([][]int64, batch)
	f.results = make([]*switchsim.Result, batch)
	f.next = make([]int, batch)
	f.horizon = make([]int, batch)
	f.at = make([]int, batch)
	f.active = make([]int32, 0, batch)
	f.sleep = make([]sleeper, 0, batch)
	f.edges = make([]matching.Edge, 0, f.nm)
	v := &f.view
	v.n, v.m, v.nm = n, m, f.nm
	v.wm = f.wm
	v.icap, v.ocap = f.icap, f.ocap
	v.icapM, v.ocapM = int32(f.icap-1), int32(f.ocap-1)
	v.inBuf, v.outBuf = f.inBuf, f.outBuf
	v.speedup = cfg.Speedup
	v.recLat, v.recSer = cfg.RecordLatency, cfg.RecordSeries
	return f, nil
}

func (f *wideCIOQFleet) batchCap() int { return f.batch }
func (f *wideCIOQFleet) passes() int64 { return 0 }

// Reset loads a new batch of sequences; see (*CIOQFleet).Reset.
func (f *wideCIOQFleet) Reset(seqs []packet.Sequence) error {
	if len(seqs) < 1 || len(seqs) > f.batch {
		return fmt.Errorf("fleet: got %d sequences for a batch of %d", len(seqs), f.batch)
	}
	f.cur = len(seqs)
	f.voq.Zero()
	f.outBusy.Zero()
	clear(f.iqHdr)
	clear(f.oqHdr)
	for k := 0; k < f.batch; k++ {
		f.outFree[k*f.wm : (k+1)*f.wm].Fill(f.m)
		f.st[k] = wideCtr{}
		f.hot[k] = hotCtr{}
	}
	f.seqs = seqs
	f.active = f.active[:0]
	f.sleep = f.sleep[:0]
	f.slot = 0
	f.live = f.cur
	f.err = nil
	for k := 0; k < f.cur; k++ {
		f.ms[k] = switchsim.Metrics{}
		if f.cfg.RecordLatency && f.cfg.StreamMetrics {
			f.ms[k].EnableLatencySketch()
		}
		f.results[k] = nil
		f.next[k] = 0
		f.at[k] = 0
		f.horizon[k] = f.cfg.HorizonFor(seqs[k])
		if f.cfg.RecordSeries {
			f.series[k] = make([]int64, f.horizon[k])
		} else {
			f.series[k] = nil
		}
		f.active = append(f.active, int32(k))
	}
	for k := f.cur; k < f.batch; k++ {
		f.ms[k] = switchsim.Metrics{}
		f.results[k] = nil
		f.series[k] = nil
	}
	return nil
}

// Step advances the global clock by one window; see (*CIOQFleet).Step.
func (f *wideCIOQFleet) Step() bool {
	if f.err != nil || f.live == 0 {
		return false
	}
	if len(f.active) == 0 {
		f.slot = f.sleep[0].wake
	}
	end := f.slot + windowSlots
	for len(f.sleep) > 0 && f.sleep[0].wake < end {
		var s sleeper
		f.sleep, s = sleepPop(f.sleep)
		f.at[s.k] = s.wake
		f.active = append(f.active, s.k)
	}
	for idx := 0; idx < len(f.active); idx++ {
		k := f.active[idx]
		switch f.runWindow(k, end) {
		case instActive:
		case instErr:
			return false
		default:
			last := len(f.active) - 1
			f.active[idx] = f.active[last]
			f.active = f.active[:last]
			idx--
		}
	}
	f.slot = end
	return f.live > 0 && f.err == nil
}

func (f *wideCIOQFleet) runWindow(k int32, end int) instStatus {
	kk := int(k)
	v := &f.view
	v.bind(f, kk)
	seq := f.seqs[kk]
	nx := f.next[kk]
	horizon := f.horizon[kk]
	st := v.st
	hm := v.hm
	T := f.at[kk]
	// Window-local metric accumulators; see (*CIOQFleet).runWindow.
	var aArr, aArrV, aAcc, aAccV, aRej, aRejV, aPre, aPreV, tSent, tBen, oIn, oOut, oSamp int64
	flush := func() {
		hm.arrived += aArr
		hm.arrivedVal += aArrV
		hm.accepted += aAcc
		hm.acceptedVal += aAccV
		hm.rejected += aRej
		hm.rejectedVal += aRejV
		hm.preemptedIn += aPre
		hm.preemptedInVal += aPreV
		hm.sent += tSent
		hm.benefit += tBen
		hm.inOccup += oIn
		hm.outOccup += oOut
		hm.sampled += oSamp
	}
	for {
		for nx < len(seq) && seq[nx].Arrival == T {
			p := &seq[nx]
			nx++
			if uint(p.In) >= uint(v.n) || uint(p.Out) >= uint(v.m) || p.Value < 1 {
				f.err = fmt.Errorf("fleet: instance %d: bad packet %v", kk, *p)
				return instErr
			}
			aArr++
			aArrV += p.Value
			q := p.In*v.m + p.Out
			h := &v.iqHdr[q]
			// ByValue preemptive admission; see (*CIOQFleet).runWindow.
			if h.n >= v.inBuf {
				ti := q*v.icap + int((h.head+h.n-1)&v.icapM)
				tv := v.iq[ti].v
				if tv >= p.Value {
					aRej++
					aRejV += p.Value
					continue
				}
				h.n--
				ringInsert(v.iq, v.iqID, h, q*v.icap, v.icapM, pkt{v: p.Value, a: int32(p.Arrival)}, p.ID)
				aAcc++
				aAccV += p.Value
				aPre++
				aPreV += tv
				continue
			}
			ringInsert(v.iq, v.iqID, h, q*v.icap, v.icapM, pkt{v: p.Value, a: int32(p.Arrival)}, p.ID)
			v.voqRow(p.In).Set(p.Out)
			st.in++
			aAcc++
			aAccV += p.Value
		}

		for c := 0; c < v.speedup; c++ {
			v.cycle(f.beta)
		}
		if f.err != nil {
			return instErr
		}

		// Transmission: every non-empty output queue sends its head.
		ob := v.outBusy
		for wdx, word := range ob {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				j := wdx<<6 + b
				h := &v.oqHdr[j]
				p := v.oq[j*v.ocap+int(h.head)]
				h.head = (h.head + 1) & v.ocapM
				h.n--
				st.out--
				v.outFree[wdx] |= 1 << uint(b)
				if h.n == 0 {
					ob[wdx] &^= 1 << uint(b)
				}
				tSent++
				tBen += p.v
				if v.recLat {
					v.lat.RecordLatency(T - int(p.a))
				}
				if v.recSer {
					v.series[T] += p.v
				}
			}
		}

		oIn += int64(st.in)
		oOut += int64(st.out)
		oSamp++

		if f.cfg.Validate {
			if err := f.validate(kk, T); err != nil {
				f.err = err
				return instErr
			}
		}

		if !f.cfg.Dense && st.in == 0 {
			to := horizon
			if nx < len(seq) && seq[nx].Arrival < to {
				to = seq[nx].Arrival
			}
			if jump := to - (T + 1); jump > 0 {
				v.quiesce(T, jump)
				if f.cfg.Validate {
					if err := f.validate(kk, T+jump); err != nil {
						f.err = fmt.Errorf("after quiescent jump: %w", err)
						return instErr
					}
				}
				T += jump
			}
		}
		T++
		if T >= horizon {
			flush()
			f.next[kk] = nx
			return f.retire(k)
		}
		if T >= end {
			flush()
			f.next[kk] = nx
			f.at[kk] = T
			if T > end {
				f.sleep = sleepPush(f.sleep, sleeper{wake: T, k: k})
				return instSleep
			}
			return instActive
		}
	}
}

// cycle is one PG scheduling cycle on the bound instance; see pgKernel.
// Eligible VOQ-head edges (destination open, or the head beats beta times
// the destination's least valuable packet) are enumerated (input, output)
// ascending, matched greedily by weight through the batched matcher, and
// each match is executed with output-side preemption.
func (v *wideCIOQView) cycle(beta float64) {
	f := v.f
	edges := f.edges[:0]
	for i := 0; i < v.n; i++ {
		row := v.voqRow(i)
		for wdx, word := range row {
			of := v.outFree[wdx]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				j := wdx<<6 + b
				q := i*v.m + j
				hv := v.iq[q*v.icap+int(v.iqHdr[q].head)].v
				if of&(1<<uint(b)) == 0 {
					ho := &v.oqHdr[j]
					tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
					if float64(hv) <= beta*float64(tv) {
						continue
					}
				}
				edges = append(edges, matching.Edge{U: i, V: j, W: hv})
			}
		}
	}
	f.edges = edges
	for _, e := range f.matcher.match(v.n, v.m, edges, &f.sched) {
		v.wtransfer(e.U, e.V)
	}
}

// wtransfer moves the head packet of IQ(i,j) into OQ(j) in ByValue order,
// preempting the OQ minimum when it is full; see (*cioqView).wtransfer.
func (v *wideCIOQView) wtransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voqRow(i).Clear(j)
	}
	st := v.st
	st.in--
	ho := &v.oqHdr[j]
	base := j * v.ocap
	if ho.n >= v.outBuf {
		ti := base + int((ho.head+ho.n-1)&v.ocapM)
		tv := v.oq[ti].v
		if tv >= p.v {
			v.f.err = fmt.Errorf("fleet: transfer %d->%d of value %d rejected by full OQ (tail %d not worse)", i, j, p.v, tv)
			return
		}
		ho.n--
		ringInsert(v.oq, v.oqID, ho, base, v.ocapM, p, id)
		v.hm.preemptedOut++
		v.hm.preemptedOutVal += tv
	} else {
		ringInsert(v.oq, v.oqID, ho, base, v.ocapM, p, id)
		v.outBusy.Set(j)
		if ho.n >= v.outBuf {
			v.outFree.Clear(j)
		}
		st.out++
	}
	v.hm.transferred++
}

// quiesce advances the bound instance across `jump` arrival-free slots in
// closed form; see (*cioqView).quiesce.
func (v *wideCIOQView) quiesce(T, jump int) {
	st := v.st
	hm := v.hm
	ob := v.outBusy
	for wdx, word := range ob {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			j := wdx<<6 + b
			h := &v.oqHdr[j]
			l := int(h.n)
			d := min(l, jump)
			for x := 1; x <= d; x++ {
				p := v.oq[j*v.ocap+int(h.head)]
				h.head = (h.head + 1) & v.ocapM
				h.n--
				hm.sent++
				hm.benefit += p.v
				if v.recLat {
					v.lat.RecordLatency(T + x - int(p.a))
				}
				if v.recSer {
					v.series[T+x] += p.v
				}
			}
			st.out -= int32(d)
			hm.outOccup += int64(d)*int64(l) - int64(d)*int64(d+1)/2
			if h.n == 0 {
				ob[wdx] &^= 1 << uint(b)
			}
		}
	}
	hm.sampled += int64(jump)
}

func (f *wideCIOQFleet) retire(k int32) instStatus {
	if err := checkResidual(int(k), f.seqs[k], f.next[k], f.horizon[k]); err != nil {
		f.err = err
		return instErr
	}
	hm := &f.hot[k]
	m := &f.ms[k]
	m.Arrived, m.ArrivedValue = hm.arrived, hm.arrivedVal
	m.Accepted, m.AcceptedValue = hm.accepted, hm.acceptedVal
	m.Rejected, m.RejectedValue = hm.rejected, hm.rejectedVal
	m.Transferred = hm.transferred
	m.Sent, m.Benefit = hm.sent, hm.benefit
	m.PreemptedInput, m.PreemptedInputValue = hm.preemptedIn, hm.preemptedInVal
	m.PreemptedOutput, m.PreemptedOutputValue = hm.preemptedOut, hm.preemptedOutVal
	m.InputOccupSum, m.OutputOccupSum = hm.inOccup, hm.outOccup
	m.AddSlotSamples(hm.sampled)
	if f.cfg.RecordSeries {
		m.SlotBenefit = f.series[k]
	}
	if f.cfg.Validate {
		residual := int64(f.st[k].in) + int64(f.st[k].out)
		preempted := m.PreemptedInput + m.PreemptedOutput
		if m.Accepted != m.Sent+preempted+residual {
			f.err = fmt.Errorf("fleet: instance %d: conservation violated: accepted=%d sent=%d preempted=%d residual=%d",
				k, m.Accepted, m.Sent, preempted, residual)
			return instErr
		}
	}
	f.results[k] = &switchsim.Result{Policy: f.policy, Cfg: f.cfg, Slots: f.horizon[k], M: *m}
	f.live--
	return instRetired
}

func (f *wideCIOQFleet) validate(k, T int) error {
	var in, out int32
	st := &f.st[k]
	outFree := f.outFree[k*f.wm : (k+1)*f.wm]
	outBusy := f.outBusy[k*f.wm : (k+1)*f.wm]
	for i := 0; i < f.n; i++ {
		row := f.voq[(k*f.n+i)*f.wm : (k*f.n+i+1)*f.wm]
		for j := 0; j < f.m; j++ {
			q := k*f.nm + i*f.m + j
			l := f.iqHdr[q].n
			in += l
			if l < 0 || l > f.inBuf {
				return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] length %d out of range", T, k, i, j, l)
			}
			if got, want := row.Test(j), l > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQ[%d] bit %d = %v, len=%d", T, k, i, j, got, l)
			}
			if !ringOrdered(f.iq, f.iqID, f.iqHdr[q], q*f.icap, int32(f.icap-1)) {
				return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] not in ByValue order", T, k, i, j)
			}
		}
	}
	for j := 0; j < f.m; j++ {
		l := f.oqHdr[k*f.m+j].n
		out += l
		if l < 0 || l > f.outBuf {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] length %d out of range", T, k, j, l)
		}
		if got, want := outFree.Test(j), l < f.outBuf; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutFree bit %d = %v, len=%d", T, k, j, got, l)
		}
		if got, want := outBusy.Test(j), l > 0; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutBusy bit %d = %v, len=%d", T, k, j, got, l)
		}
		if !ringOrdered(f.oq, f.oqID, f.oqHdr[k*f.m+j], (k*f.m+j)*f.ocap, int32(f.ocap-1)) {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] not in ByValue order", T, k, j)
		}
	}
	if in != st.in || out != st.out {
		return fmt.Errorf("fleet: slot %d instance %d: counters (in=%d,out=%d) but queues hold (%d,%d)",
			T, k, st.in, st.out, in, out)
	}
	return nil
}

// Results returns one Result per loaded instance; see
// (*CIOQFleet).Results.
func (f *wideCIOQFleet) Results() ([]*switchsim.Result, error) {
	if f.err != nil {
		return nil, f.err
	}
	if f.live > 0 {
		return nil, fmt.Errorf("fleet: %d instances still live", f.live)
	}
	return f.results[:f.cur], nil
}

// wideMatcher is the wide-switch batched matcher: a stable counting-sort
// bucket pass by weight — preserving the kernels' (U,V)-ascending
// enumeration order within each bucket, which is exactly the canonical
// order of matching.GreedyMaximalWeighted (weight desc, ties U asc then
// V asc) — followed by a greedy acceptance sweep over multi-word
// endpoint-availability masks. All scratch (buckets, sorted buffer,
// masks) is owned by the fleet, so it is shared across the batch
// dimension and across cycles. Inputs outside the bucket range delegate
// to the general scheduler, which produces the identical matching via
// its sorting paths.
type wideMatcher struct {
	count  []int32
	sorted []matching.Edge
	usedU  bitset.Mask
	usedV  bitset.Mask
	out    []matching.Edge
}

// wideMatchMaxW bounds the counting buckets, mirroring the scheduler's
// counting-sort fast path.
const wideMatchMaxW = 2048

// match returns the greedy maximal weighted matching of edges, which
// must be enumerated in (U, V)-ascending order. The result aliases
// internal scratch valid until the next call.
func (wm *wideMatcher) match(nU, nV int, edges []matching.Edge, sched *matching.WeightedScheduler) []matching.Edge {
	if len(edges) == 0 {
		return nil
	}
	var maxW int64
	for _, e := range edges {
		if e.W < 0 || e.W > wideMatchMaxW {
			return sched.GreedyMaximalWeighted(nU, nV, edges)
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	if cap(wm.count) < int(maxW)+1 {
		wm.count = make([]int32, maxW+1)
	}
	cnt := wm.count[:maxW+1]
	clear(cnt)
	for _, e := range edges {
		cnt[e.W]++
	}
	// Bucket offsets by descending weight: the scatter below is stable,
	// so equal-weight edges keep their (U, V)-ascending input order.
	var pos int32
	for w := maxW; w >= 0; w-- {
		c := cnt[w]
		cnt[w] = pos
		pos += c
	}
	if cap(wm.sorted) < len(edges) {
		wm.sorted = make([]matching.Edge, len(edges))
	}
	srt := wm.sorted[:len(edges)]
	for _, e := range edges {
		srt[cnt[e.W]] = e
		cnt[e.W]++
	}
	wU, wV := bitset.Words(nU), bitset.Words(nV)
	if cap(wm.usedU) < wU {
		wm.usedU = make(bitset.Mask, wU)
	}
	if cap(wm.usedV) < wV {
		wm.usedV = make(bitset.Mask, wV)
	}
	uu, vv := wm.usedU[:wU], wm.usedV[:wV]
	uu.Zero()
	vv.Zero()
	out := wm.out[:0]
	for _, e := range srt {
		if uu.Test(e.U) || vv.Test(e.V) {
			continue
		}
		uu.Set(e.U)
		vv.Set(e.V)
		out = append(out, e)
	}
	wm.out = out
	return out
}
