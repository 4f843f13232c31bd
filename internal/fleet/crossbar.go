package fleet

import (
	"fmt"
	"math/bits"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// ports is a crossbar instance's port-occupancy summary: single-word
// output masks and layer counters, packed so a slot touches one cache line.
type ports struct {
	outFree, outBusy              uint64
	inCount, crossCount, outCount int32
	_                             int32
}

// CrossbarFleet is the buffered-crossbar counterpart of CIOQFleet: B
// independent crossbar instances in columnar layout, stepped in lockstep
// windows with per-instance quiescent jumps. Quiescence requires both the
// input and the crosspoint layers to be empty — while crosspoints hold
// packets the output subphase still makes policy-specific choices, so
// those slots run densely, exactly as in the scalar engine.
type CrossbarFleet struct {
	lockstep
	kern     crossbarKernel
	n, m     int
	nm       int
	icap     int
	xcap     int
	ocap     int
	inBuf    int32
	crossBuf int32
	outBuf   int32

	// Columnar switch state: per-instance blocks inside flat arrays.
	voq        []uint64 // [k*n+i]: outputs j with IQ(k,i,j) non-empty
	xFree      []uint64 // [k*n+i]: outputs j with XQ(k,i,j) not full
	xBusyByOut []uint64 // [k*m+j]: inputs i with XQ(k,i,j) non-empty
	st         []ports  // [k]
	iq         []pkt
	iqHdr      []qhdr
	xq         []pkt
	xqHdr      []qhdr
	oq         []pkt
	oqHdr      []qhdr

	// ID lanes, allocated only for weighted kernels; see CIOQFleet.
	iqID []int64
	xqID []int64
	oqID []int64

	// Head-value lanes (weighted kernels only): cached ring head values
	// for the input and crosspoint layers, refreshed at every head change
	// and read only under a set occupancy bit; see CIOQFleet.iqHV. iqHV
	// is indexed [k*nm + i*m + j] like the rings; xqHV is TRANSPOSED to
	// [k*nm + j*n + i] because its only reader is the CPG output
	// subphase, whose per-output argmax scan then walks it sequentially
	// instead of at stride m.
	iqHV []int64
	xqHV []int64

	weighted bool  // ByValue rings with ID lanes and preemption
	pend     []pkt // the view's pass-through buffer, [j]
}

// crossbarView is the per-instance working set bound once per window, on
// runWindow's stack; see cioqView.
type crossbarView struct {
	f          *CrossbarFleet
	k          int
	st         *ports
	hm         *hotCtr
	lat        *switchsim.Metrics // nil unless RecordLatency
	voq        []uint64
	xFree      []uint64
	xBusyByOut []uint64
	iqHdr      []qhdr
	iq         []pkt
	xqHdr      []qhdr
	xq         []pkt
	oqHdr      []qhdr
	oq         []pkt
	series     []int64

	n, m, nm            int
	icap, xcap, ocap    int
	icapM, xcapM, ocapM int32
	inBuf, crossBuf     int32
	outBuf              int32
	speedup             int
	recLat, recSer      bool
	weighted            bool // ByValue rings with ID lanes and preemption

	// ID lanes (weighted kernels only); same indexing as iq/xq/oq.
	iqID []int64
	xqID []int64
	oqID []int64

	// Head-value lanes (weighted kernels only); see CrossbarFleet.
	iqHV []int64
	xqHV []int64

	// Direct pass-through delivery into output queues; see cioqView.
	// Weighted kernels never use it (ByValue insertions are not FIFO).
	direct uint64
	pend   []pkt
}

func (v *crossbarView) bind(f *CrossbarFleet, k int) {
	v.f = f
	v.k = k
	v.n, v.m, v.nm = f.n, f.m, f.nm
	v.icap, v.xcap, v.ocap = f.icap, f.xcap, f.ocap
	v.icapM, v.xcapM, v.ocapM = int32(f.icap-1), int32(f.xcap-1), int32(f.ocap-1)
	v.inBuf, v.crossBuf, v.outBuf = f.inBuf, f.crossBuf, f.outBuf
	v.speedup = f.cfg.Speedup
	v.recLat, v.recSer = f.cfg.RecordLatency, f.cfg.RecordSeries
	v.weighted = f.weighted
	v.pend = f.pend
	v.st = &f.st[k]
	v.hm = &f.hot[k]
	if f.cfg.RecordLatency {
		v.lat = &f.res[k].M
	}
	v.voq = f.voq[k*f.n : (k+1)*f.n]
	v.xFree = f.xFree[k*f.n : (k+1)*f.n]
	v.xBusyByOut = f.xBusyByOut[k*f.m : (k+1)*f.m]
	v.iqHdr = f.iqHdr[k*f.nm : (k+1)*f.nm]
	v.iq = f.iq[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
	v.xqHdr = f.xqHdr[k*f.nm : (k+1)*f.nm]
	v.xq = f.xq[k*f.nm*f.xcap : (k+1)*f.nm*f.xcap]
	v.oqHdr = f.oqHdr[k*f.m : (k+1)*f.m]
	v.oq = f.oq[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
	if f.cfg.RecordSeries {
		v.series = f.series[k]
	}
	if f.iqID != nil {
		v.iqID = f.iqID[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
		v.xqID = f.xqID[k*f.nm*f.xcap : (k+1)*f.nm*f.xcap]
		v.oqID = f.oqID[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
		v.iqHV = f.iqHV[k*f.nm : (k+1)*f.nm]
		v.xqHV = f.xqHV[k*f.nm : (k+1)*f.nm]
	}
}

// NewCrossbarFleet sizes a fleet of `batch` crossbar instances for the
// configuration and policy family produced by factory, returning
// ErrUnsupported (possibly wrapped) when no batched kernel exists or the
// geometry exceeds 64 ports.
func NewCrossbarFleet(cfg switchsim.Config, factory func() switchsim.CrossbarPolicy, batch int) (*CrossbarFleet, error) {
	if err := cfg.Check(true); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("fleet: batch size %d < 1", batch)
	}
	pol := factory()
	kern := crossbarKernelFor(pol)
	if kern == nil {
		return nil, fmt.Errorf("fleet: policy %q: %w", pol.Name(), ErrUnsupported)
	}
	if cfg.Inputs > maxPorts || cfg.Outputs > maxPorts {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, maxPorts, ErrUnsupported)
	}
	n, m := cfg.Inputs, cfg.Outputs
	f := &CrossbarFleet{
		kern: kern, n: n, m: m, nm: n * m,
		icap: ceilPow2(cfg.InputBuf), xcap: ceilPow2(cfg.CrossBuf), ocap: ceilPow2(cfg.OutputBuf),
		inBuf: int32(cfg.InputBuf), crossBuf: int32(cfg.CrossBuf), outBuf: int32(cfg.OutputBuf),
	}
	f.lockstep = newLockstep(cfg, pol.Name(), batch, f)
	f.voq = make([]uint64, batch*n)
	f.xFree = make([]uint64, batch*n)
	f.xBusyByOut = make([]uint64, batch*m)
	f.st = make([]ports, batch)
	f.iq = make([]pkt, batch*f.nm*f.icap)
	f.iqHdr = make([]qhdr, batch*f.nm)
	f.xq = make([]pkt, batch*f.nm*f.xcap)
	f.xqHdr = make([]qhdr, batch*f.nm)
	f.oq = make([]pkt, batch*m*f.ocap)
	f.oqHdr = make([]qhdr, batch*m)
	f.pend = make([]pkt, m)
	if kern.weighted() {
		f.weighted = true
		f.iqID = make([]int64, batch*f.nm*f.icap)
		f.xqID = make([]int64, batch*f.nm*f.xcap)
		f.oqID = make([]int64, batch*m*f.ocap)
		f.iqHV = make([]int64, batch*f.nm)
		f.xqHV = make([]int64, batch*f.nm)
	}
	return f, nil
}

// Reset loads a new batch of arrival sequences (up to the construction
// batch size) and rewinds every loaded instance to slot 0, reusing the
// fleet's storage. Sequences are validated as they are admitted; see
// (*CIOQFleet).Reset.
func (f *CrossbarFleet) Reset(seqs []packet.Sequence) error {
	if err := f.load(seqs); err != nil {
		return err
	}
	clear(f.voq)
	clear(f.xBusyByOut)
	clear(f.iqHdr)
	clear(f.xqHdr)
	clear(f.oqHdr)
	allOut := allOnes(f.m)
	for x := range f.xFree {
		f.xFree[x] = allOut
	}
	for k := range f.st {
		f.st[k] = ports{outFree: allOut}
	}
	return nil
}

func (f *CrossbarFleet) runWindow(k int32, end int) instStatus {
	kk := int(k)
	v := &crossbarView{}
	v.bind(f, kk)
	seq := f.seqs[kk]
	nx := f.next[kk]
	horizon := f.horizon[kk]
	st := v.st
	hm := v.hm
	chk := &f.check[kk]
	T := f.at[kk]
	// Window-local metric accumulators; see (*CIOQFleet).runWindow.
	var aArr, aArrV, aAcc, aAccV, aRej, aRejV, aPre, aPreV, tSent, tBen, oIn, oX, oOut, oSamp int64
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
		hm.crossOccup += oX
		hm.outOccup += oOut
		hm.sampled += oSamp
	}
	for {
		// Admissions, validated as in (*CIOQFleet).runWindow.
		for nx < len(seq) && seq[nx].Arrival <= T {
			p := &seq[nx]
			if !chk.Accept(p) {
				f.err = switchsim.BadSequence(chk.Reject(p))
				return instErr
			}
			nx++
			aArr++
			aArrV += p.Value
			q := p.In*v.m + p.Out
			h := &v.iqHdr[q]
			if v.weighted {
				// ByValue preemptive admission with the depth-0/1 insert
				// fast paths; see (*CIOQFleet).runWindow.
				pre := false
				var preV int64
				if h.n >= v.inBuf {
					ti := q*v.icap + int((h.head+h.n-1)&v.icapM)
					tv := v.iq[ti].v
					if tv >= p.Value {
						aRej++
						aRejV += p.Value
						continue
					}
					h.n--
					pre, preV = true, tv
				}
				np := pkt{v: p.Value, a: int32(p.Arrival)}
				switch h.n {
				case 0:
					ringInsert0(v.iq, v.iqID, h, q*v.icap, np, p.ID)
					v.iqHV[q] = np.v
				case 1:
					b := q * v.icap
					v.iqHV[q] = ringInsert1(v.iq[b:], v.iqID[b:], h, v.icapM, np, p.ID)
				default:
					ringInsert(v.iq, v.iqID, h, q*v.icap, v.icapM, np, p.ID)
					v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
				}
				if pre {
					aAcc++
					aAccV += p.Value
					aPre++
					aPreV += preV
					continue
				}
			} else {
				if h.n >= v.inBuf {
					aRej++
					aRejV += p.Value
					continue
				}
				v.iq[q*v.icap+int((h.head+h.n)&v.icapM)] = pkt{v: p.Value, a: int32(p.Arrival)}
				h.n++
			}
			v.voq[p.In] |= 1 << uint(p.Out)
			st.inCount++
			aAcc++
			aAccV += p.Value
		}

		for c := 0; c < v.speedup; c++ {
			f.cycle(v)
		}
		if f.err != nil {
			// A weighted transfer hit an ineligible full destination; see
			// (*CIOQFleet).runWindow.
			return instErr
		}

		w := st.outBusy
		for w != 0 {
			j := bits.TrailingZeros64(w)
			w &= w - 1
			h := &v.oqHdr[j]
			var p pkt
			if v.direct&(1<<uint(j)) != 0 {
				p = v.pend[j]
				v.direct &^= 1 << uint(j)
			} else {
				p = v.oq[j*v.ocap+int(h.head)]
			}
			h.head = (h.head + 1) & v.ocapM
			h.n--
			st.outCount--
			st.outFree |= 1 << uint(j)
			if h.n == 0 {
				st.outBusy &^= 1 << uint(j)
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

		oIn += int64(st.inCount)
		oX += int64(st.crossCount)
		oOut += int64(st.outCount)
		oSamp++

		if f.cfg.Validate {
			if err := f.validate(kk, T); err != nil {
				f.err = err
				return instErr
			}
		}

		if !f.cfg.Dense && st.inCount == 0 && st.crossCount == 0 {
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
				f.jumps++
				f.jumped += int64(jump)
				T += jump
			}
		}
		T++
		if T >= horizon {
			flush()
			f.next[kk] = nx
			return f.retire(k, int64(st.inCount)+int64(st.crossCount)+int64(st.outCount))
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

// inputTransfer moves the head packet of IQ(i,j) to XQ(i,j) on the bound
// instance. Kernels only produce transfers whose crosspoint has room.
func (v *crossbarView) inputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	p := v.iq[q*v.icap+int(h.head)]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voq[i] &^= 1 << uint(j)
	}
	hx := &v.xqHdr[q]
	v.xq[q*v.xcap+int((hx.head+hx.n)&v.xcapM)] = p
	hx.n++
	v.xBusyByOut[j] |= 1 << uint(i)
	if hx.n >= v.crossBuf {
		v.xFree[i] &^= 1 << uint(j)
	}
	st := v.st
	st.inCount--
	st.crossCount++
	v.hm.transferred++
}

// outputTransfer moves the head packet of XQ(i,j) to OQ(j) on the bound
// instance. Kernels only produce transfers whose output queue has room.
func (v *crossbarView) outputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.xqHdr[q]
	p := v.xq[q*v.xcap+int(h.head)]
	h.head = (h.head + 1) & v.xcapM
	h.n--
	if h.n == 0 {
		v.xBusyByOut[j] &^= 1 << uint(i)
	}
	v.xFree[i] |= 1 << uint(j)
	ho := &v.oqHdr[j]
	if ho.n == 0 {
		// Empty destination: the packet is this slot's transmit head, so
		// park it in the pass-through buffer instead of the ring.
		v.pend[j] = p
		v.direct |= 1 << uint(j)
		v.f.passCount++
	} else {
		v.oq[j*v.ocap+int((ho.head+ho.n)&v.ocapM)] = p
	}
	ho.n++
	st := v.st
	st.crossCount--
	st.outBusy |= 1 << uint(j)
	if ho.n >= v.outBuf {
		st.outFree &^= 1 << uint(j)
	}
	st.outCount++
	v.hm.transferredCross++
}

// wInputTransfer moves the most valuable packet of IQ(i,j) — the ByValue
// ring head — into crosspoint XQ(i,j), preempting the crosspoint's least
// valuable packet when it is full, exactly as the scalar engine's
// executeInputSubphase does for preemptive policies. See
// (*cioqView).wtransfer for the eligibility/error contract.
func (v *crossbarView) wInputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voq[i] &^= 1 << uint(j)
	} else {
		v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
	}
	st := v.st
	st.inCount--
	hx := &v.xqHdr[q]
	base := q * v.xcap
	if hx.n >= v.crossBuf {
		ti := base + int((hx.head+hx.n-1)&v.xcapM)
		tv := v.xq[ti].v
		if tv >= p.v {
			v.f.err = fmt.Errorf("fleet: transfer %d->%d of value %d rejected by full XQ (tail %d not worse)", i, j, p.v, tv)
			return
		}
		hx.n--
		v.hm.preemptedCross++
		v.hm.preemptedCrossVal += tv
	} else {
		v.xBusyByOut[j] |= 1 << uint(i)
		st.crossCount++
	}
	if hx.n == 0 {
		// Empty (or fully preempted, CrossBuf 1) crosspoint: the insert
		// is a store and the new head value is the packet itself.
		ringInsert0(v.xq, v.xqID, hx, base, p, id)
		v.xqHV[j*v.n+i] = p.v
	} else {
		ringInsert(v.xq, v.xqID, hx, base, v.xcapM, p, id)
		v.xqHV[j*v.n+i] = v.xq[base+int(hx.head)].v
	}
	// A preempting insert leaves the crosspoint full; re-clearing the
	// bit is idempotent, so the fullness check is shared by both
	// branches.
	if hx.n >= v.crossBuf {
		v.xFree[i] &^= 1 << uint(j)
	}
	v.hm.transferred++
}

// wOutputTransfer moves the most valuable packet of XQ(i,j) into output
// queue j, preempting the output's least valuable packet when it is full,
// exactly as the scalar engine's executeOutputSubphase does.
func (v *crossbarView) wOutputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.xqHdr[q]
	x := q*v.xcap + int(h.head)
	p := v.xq[x]
	id := v.xqID[x]
	h.head = (h.head + 1) & v.xcapM
	h.n--
	if h.n == 0 {
		v.xBusyByOut[j] &^= 1 << uint(i)
	} else {
		v.xqHV[j*v.n+i] = v.xq[q*v.xcap+int(h.head)].v
	}
	v.xFree[i] |= 1 << uint(j)
	st := v.st
	st.crossCount--
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
		v.hm.preemptedOut++
		v.hm.preemptedOutVal += tv
	} else {
		st.outBusy |= 1 << uint(j)
		st.outCount++
	}
	if ho.n == 0 {
		ringInsert0(v.oq, v.oqID, ho, base, p, id)
	} else {
		ringInsert(v.oq, v.oqID, ho, base, v.ocapM, p, id)
	}
	// Idempotent for the preempting branch, as in wInputTransfer.
	if ho.n >= v.outBuf {
		st.outFree &^= 1 << uint(j)
	}
	v.hm.transferredCross++
}

// cycle runs one kernel cycle on the bound view, calling the kernel by
// its concrete type so the view stays on runWindow's stack; see
// (*CIOQFleet).cycle.
func (f *CrossbarFleet) cycle(v *crossbarView) {
	switch k := f.kern.(type) {
	case *cguKernel:
		k.cycle(v)
	case *cpgKernel:
		k.cycle(v)
	default:
		panic(fmt.Sprintf("fleet: kernel %T has no case in (*CrossbarFleet).cycle", k))
	}
}

// quiesce advances the bound instance across `jump` arrival-free
// drain-only slots in closed form; see (*cioqView).quiesce.
func (v *crossbarView) quiesce(T, jump int) {
	st := v.st
	for w := st.outBusy; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		h := &v.oqHdr[j]
		st.outCount -= drain(v.oq[j*v.ocap:], h, v.ocapM, v.hm, v.lat, v.series, T, jump)
		if h.n == 0 {
			st.outBusy &^= 1 << uint(j)
		}
	}
	v.hm.sampled += int64(jump)
}

func (f *CrossbarFleet) validate(k, T int) error {
	var in, cross, out int32
	st := &f.st[k]
	for i := 0; i < f.n; i++ {
		for j := 0; j < f.m; j++ {
			q := k*f.nm + i*f.m + j
			il, xl := f.iqHdr[q].n, f.xqHdr[q].n
			in += il
			cross += xl
			if il < 0 || il > f.inBuf || xl < 0 || xl > f.crossBuf {
				return fmt.Errorf("fleet: slot %d instance %d: queue (%d,%d) lengths iq=%d xq=%d out of range", T, k, i, j, il, xl)
			}
			if got, want := f.voq[k*f.n+i]&(1<<uint(j)) != 0, il > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQ[%d] bit %d = %v, len=%d", T, k, i, j, got, il)
			}
			if got, want := f.xFree[k*f.n+i]&(1<<uint(j)) != 0, xl < f.crossBuf; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: XFree[%d] bit %d = %v, len=%d", T, k, i, j, got, xl)
			}
			if got, want := f.xBusyByOut[k*f.m+j]&(1<<uint(i)) != 0, xl > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: XBusyByOut[%d] bit %d = %v, len=%d", T, k, j, i, got, xl)
			}
			if f.iqID != nil {
				if !ringOrdered(f.iq, f.iqID, f.iqHdr[q], q*f.icap, int32(f.icap-1)) {
					return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] not in ByValue order", T, k, i, j)
				}
				if !ringOrdered(f.xq, f.xqID, f.xqHdr[q], q*f.xcap, int32(f.xcap-1)) {
					return fmt.Errorf("fleet: slot %d instance %d: XQ[%d][%d] not in ByValue order", T, k, i, j)
				}
			}
		}
	}
	for j := 0; j < f.m; j++ {
		l := f.oqHdr[k*f.m+j].n
		out += l
		if l < 0 || l > f.outBuf {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] length %d out of range", T, k, j, l)
		}
		if f.oqID != nil && !ringOrdered(f.oq, f.oqID, f.oqHdr[k*f.m+j], (k*f.m+j)*f.ocap, int32(f.ocap-1)) {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] not in ByValue order", T, k, j)
		}
		if got, want := st.outFree&(1<<uint(j)) != 0, l < f.outBuf; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutFree bit %d = %v, len=%d", T, k, j, got, l)
		}
		if got, want := st.outBusy&(1<<uint(j)) != 0, l > 0; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutBusy bit %d = %v, len=%d", T, k, j, got, l)
		}
	}
	if in != st.inCount || cross != st.crossCount || out != st.outCount {
		return fmt.Errorf("fleet: slot %d instance %d: counters (in=%d,cross=%d,out=%d) but queues hold (%d,%d,%d)",
			T, k, st.inCount, st.crossCount, st.outCount, in, cross, out)
	}
	return nil
}
