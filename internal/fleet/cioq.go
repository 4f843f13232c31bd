package fleet

import (
	"fmt"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// pkt is a queued packet: transmission value and arrival slot (the only
// per-packet fields the unit-family policies and the metrics observe).
// One 16-byte entry keeps every queue operation on a single cache line.
type pkt struct {
	v int64
	a int32
	_ int32
}

// qhdr is a queue ring header: position of the head element and current
// length. Ring capacity is a per-fleet power of two.
type qhdr struct {
	head, n int32
}

// ioCount is a CIOQ instance's layer counters: the packets it holds on
// the input side and on the output side.
type ioCount struct {
	in, out int32
}

// CIOQFleet is a batch of B independent CIOQ switch instances sharing one
// configuration and one policy kernel, stepped in lockstep windows over a
// global slot clock. All switch state is columnar (see the package
// documentation); storage is sized once at construction and reused across
// Reset, so steady-state stepping never allocates.
//
// Output-indexed occupancy rows (voq, outFree, outBusy) are wm =
// bitset.Words(Outputs) words long: one word up to 64 outputs, where
// every kernel runs, and up to eight for PG at 512 ports. The unit
// kernels and PG's index walk read one-word rows directly; the engine's
// slot body and PG's edge scan walk the rows word by word.
type CIOQFleet struct {
	lockstep
	kern   cioqKernel
	n, m   int
	nm     int
	wm     int // words per output-indexed row
	icap   int // input-queue ring size (power of two)
	ocap   int // output-queue ring size (power of two)
	inBuf  int32
	outBuf int32

	// Columnar switch state: per-instance blocks inside flat arrays.
	voq     []uint64  // [(k*n+i)*wm + w]: outputs j with IQ(k,i,j) non-empty
	outFree []uint64  // [k*wm + w]: outputs whose queue has room
	outBusy []uint64  // [k*wm + w]: outputs whose queue is non-empty
	cnt     []ioCount // [k]
	iq      []pkt     // [(k*nm + i*m + j)*icap + pos]
	iqHdr   []qhdr    // [k*nm + i*m + j]
	oq      []pkt     // [(k*m + j)*ocap + pos]
	oqHdr   []qhdr    // [k*m + j]

	// ID lanes, allocated only for weighted kernels: the ByValue queue
	// discipline breaks value ties on packet ID, so weighted rings carry
	// the ID alongside the pkt payload (same indexing as iq/oq).
	iqID []int64
	oqID []int64

	// iqHV caches each input ring's head value, 0 for an empty ring
	// ([k*nm + q], weighted kernels only): the schedulers read occupied
	// VOQ heads every cycle, and the flat lane replaces the dependent
	// header+ring load pair on that path. idx[k] files instance k's
	// rings under their iqHV entry (PG up to 64 ports); both are
	// refreshed wherever a ring head changes.
	iqHV []int64
	idx  []switchsim.HeadIndex

	weighted bool  // ByValue rings with ID lanes and preemption
	pend     []pkt // the view's pass-through buffer, [j]
}

// cioqView is the per-instance working set bound once per window: small
// slices over the instance's blocks plus copies of the loop constants, so
// the slot body and the kernels index tiny slices instead of recomputing
// global offsets per operation. It lives on runWindow's stack, not in the
// fleet, which keeps a fleet of one small: a short routed sequence run is
// mostly construction.
type cioqView struct {
	f                *CIOQFleet
	cnt              *ioCount
	hm               *hotCtr
	lat              *switchsim.Metrics // nil unless RecordLatency
	voq              []uint64           // n rows of wm words
	outFree, outBusy []uint64           // wm words each
	iqHdr            []qhdr
	iq               []pkt
	oqHdr            []qhdr
	oq               []pkt
	series           []int64
	iqHV             []int64
	idx              *switchsim.HeadIndex // nil unless the instance keeps one

	n, m, nm, wm   int
	icapM, ocapM   int32 // ring index masks (capacity-1)
	icap, ocap     int
	inBuf, outBuf  int32
	speedup        int
	recLat, recSer bool
	weighted       bool // ByValue rings with ID lanes and preemption

	// ID lanes (weighted kernels only); same indexing as iq/oq.
	iqID []int64
	oqID []int64

	// Direct pass-through delivery: a packet transferred into an empty
	// output queue is necessarily that slot's transmit head, so its
	// payload parks in pend[j] (direct bit set) instead of doing a ring
	// store/load round-trip; the header still advances as if it had been
	// written, keeping ring geometry consistent at any speedup. Only the
	// unit kernels park, and they run on one-word rows, so direct is one
	// word. Weighted kernels never use it: a ByValue insertion can land
	// anywhere in the ring, so their transfers always do the ring store.
	direct uint64
	pend   []pkt
}

// bind points the view at instance k.
func (v *cioqView) bind(f *CIOQFleet, k int) {
	v.f = f
	v.n, v.m, v.nm, v.wm = f.n, f.m, f.nm, f.wm
	v.icap, v.ocap = f.icap, f.ocap
	v.icapM, v.ocapM = int32(f.icap-1), int32(f.ocap-1)
	v.inBuf, v.outBuf = f.inBuf, f.outBuf
	v.speedup = f.cfg.Speedup
	v.recLat, v.recSer = f.cfg.RecordLatency, f.cfg.RecordSeries
	v.weighted = f.weighted
	v.pend = f.pend
	v.cnt = &f.cnt[k]
	v.hm = &f.hot[k]
	if f.cfg.RecordLatency {
		v.lat = &f.res[k].M
	}
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
	if f.iqID != nil {
		v.iqID = f.iqID[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
		v.oqID = f.oqID[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
		v.iqHV = f.iqHV[k*f.nm : (k+1)*f.nm]
	}
	if f.idx != nil {
		v.idx = &f.idx[k]
	}
}

// NewCIOQFleet sizes a fleet of `batch` instances for the configuration
// and policy family produced by factory. It returns ErrUnsupported
// (possibly wrapped) when the policy has no batched kernel or the
// geometry exceeds the kernel's port limit (64 ports, 512 for PG);
// callers wanting transparent fallback use a CIOQRunner instead.
func NewCIOQFleet(cfg switchsim.Config, factory func() switchsim.CIOQPolicy, batch int) (*CIOQFleet, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("fleet: batch size %d < 1", batch)
	}
	pol := factory()
	kern := cioqKernelFor(pol)
	if kern == nil {
		return nil, fmt.Errorf("fleet: policy %q: %w", pol.Name(), ErrUnsupported)
	}
	if lim := kern.portLimit(); cfg.Inputs > lim || cfg.Outputs > lim {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, lim, ErrUnsupported)
	}
	n, m := cfg.Inputs, cfg.Outputs
	f := &CIOQFleet{
		kern: kern, n: n, m: m, nm: n * m, wm: bitset.Words(m),
		icap: ceilPow2(cfg.InputBuf), ocap: ceilPow2(cfg.OutputBuf),
		inBuf: int32(cfg.InputBuf), outBuf: int32(cfg.OutputBuf),
	}
	f.lockstep = newLockstep(cfg, pol.Name(), batch, f)
	f.voq = make([]uint64, batch*n*f.wm)
	f.outFree = make([]uint64, batch*f.wm)
	f.outBusy = make([]uint64, batch*f.wm)
	f.cnt = make([]ioCount, batch)
	f.iq = make([]pkt, batch*f.nm*f.icap)
	f.iqHdr = make([]qhdr, batch*f.nm)
	f.oq = make([]pkt, batch*m*f.ocap)
	f.oqHdr = make([]qhdr, batch*m)
	if kern.weighted() {
		f.weighted = true
		f.iqID = make([]int64, batch*f.nm*f.icap)
		f.oqID = make([]int64, batch*m*f.ocap)
		f.iqHV = make([]int64, batch*f.nm)
		if n <= maxPorts && m <= maxPorts {
			f.idx = make([]switchsim.HeadIndex, batch)
		}
	} else {
		f.pend = make([]pkt, m)
	}
	kern.reset(f)
	return f, nil
}

// Reset loads a new batch of arrival sequences (one per instance; the
// slice length may be anything up to the construction batch size, so one
// fleet serves a chunk stream whose final chunk runs short) and rewinds
// every loaded instance to slot 0. Switch storage is reused; the head-value
// indexes keep their buckets and clear only what is still filed.
//
// There is no up-front validation pass: each instance feeds every packet
// to its packet.Validator as it admits it, and the packets past its
// horizon at retirement, so a malformed sequence fails the batch with
// Sequence.Validate's error text at the packet that breaks it (see
// lockstep.load).
func (f *CIOQFleet) Reset(seqs []packet.Sequence) error {
	if err := f.load(seqs); err != nil {
		return err
	}
	clear(f.iqHV)
	if f.idx != nil {
		for k := range f.cur {
			f.idx[k].Reset(f.n)
		}
	}
	clear(f.voq)
	clear(f.outBusy)
	clear(f.cnt)
	clear(f.iqHdr)
	clear(f.oqHdr)
	for k := 0; k < f.batch; k++ {
		bitset.Mask(f.outFree[k*f.wm : (k+1)*f.wm]).Fill(f.m)
	}
	f.kern.reset(f)
	return nil
}

// runWindow simulates instance k from its current slot up to the window
// end: admissions, Speedup kernel cycles, transmission, occupancy
// sampling and the quiescent fast path, slot by slot, on the bound view.
func (f *CIOQFleet) runWindow(k int32, end int) instStatus {
	kk := int(k)
	v := &cioqView{}
	v.bind(f, kk)
	seq := f.seqs[kk]
	nx := f.next[kk]
	horizon := f.horizon[kk]
	cnt := v.cnt
	hm := v.hm
	chk := &f.check[kk]
	T := f.at[kk]
	// Window-local metric accumulators: the per-packet counters are
	// register adds here and a single flush into hm at every exit (all
	// Metrics fields are sums, so accumulation order is free).
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
		// Admissions: the unit families accept iff the target queue has
		// room; the weighted (ByValue) families additionally preempt the
		// queue's least valuable packet when it is full and strictly worse
		// (queue.Ring.PushPreempt semantics — occupancy is unchanged by a
		// preempting admission, so the index bits stay put). A packet due
		// before T is out of order, which the validator refuses.
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
				// Shallow rings make depths 0/1 the common insert cases;
				// both are inlined here and yield the new head value
				// without reloading the ring.
				np := pkt{v: p.Value, a: int32(p.Arrival)}
				var hv int64
				switch h.n {
				case 0:
					ringInsert0(v.iq, v.iqID, h, q*v.icap, np, p.ID)
					hv = np.v
				case 1:
					b := q * v.icap
					hv = ringInsert1(v.iq[b:], v.iqID[b:], h, v.icapM, np, p.ID)
				default:
					v.iqInsert(q, np, p.ID)
					hv = v.iq[q*v.icap+int(h.head)].v
				}
				if old := v.iqHV[q]; hv != old {
					v.iqHV[q] = hv
					if v.idx != nil {
						v.idx.Move(p.In, p.Out, old, hv)
					}
				}
				if pre {
					aAcc++
					aAccV += p.Value
					aPre++
					aPreV += preV
					continue
				}
				v.voq[p.In*v.wm+p.Out>>6] |= 1 << uint(p.Out&63)
			} else {
				if h.n >= v.inBuf {
					aRej++
					aRejV += p.Value
					continue
				}
				v.iq[q*v.icap+int((h.head+h.n)&v.icapM)] = pkt{v: p.Value, a: int32(p.Arrival)}
				h.n++
				v.voq[p.In] |= 1 << uint(p.Out) // GM: one-word rows
			}
			cnt.in++
			aAcc++
			aAccV += p.Value
		}

		for c := 0; c < v.speedup; c++ {
			f.cycle(v)
		}
		if f.err != nil {
			// A weighted transfer hit an ineligible full destination,
			// which a beta >= 1 rules out; the scalar engine errors
			// identically.
			return instErr
		}

		// Transmission: every non-empty output queue sends its head.
		busy, free := v.outBusy, v.outFree[:len(v.outBusy)]
		for wdx, w := range busy {
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				bit := uint64(1) << uint(b)
				j := wdx<<6 | b
				h := &v.oqHdr[j]
				var p pkt
				if v.direct&bit != 0 { // only ever set on one-word rows
					p = v.pend[j]
					v.direct &^= bit
				} else {
					p = v.oq[j*v.ocap+int(h.head)]
				}
				h.head = (h.head + 1) & v.ocapM
				h.n--
				cnt.out--
				free[wdx] |= bit
				if h.n == 0 {
					busy[wdx] &^= bit
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

		oIn += int64(cnt.in)
		oOut += int64(cnt.out)
		oSamp++

		if f.cfg.Validate {
			if err := f.validate(kk, T); err != nil {
				f.err = err
				return instErr
			}
		}

		// Quiescent fast path: with no input-side packets no kernel cycle
		// can produce a transfer, so the stretch until the next arrival is
		// pure output drain advanced in closed form. No kernel keeps
		// slot-dependent state (see kernels.go), so no per-policy idle
		// hook is needed.
		if !f.cfg.Dense && cnt.in == 0 {
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
			return f.retire(k, int64(cnt.in)+int64(cnt.out))
		}
		if T >= end {
			flush()
			f.next[kk] = nx
			f.at[kk] = T
			if T > end {
				// A quiescent jump crossed the window boundary: nothing
				// happens until slot T, so skip the windows in between.
				f.sleep = sleepPush(f.sleep, sleeper{wake: T, k: k})
				return instSleep
			}
			return instActive
		}
	}
}

// cycle runs one kernel cycle on the bound view. The kernel is called by
// its concrete type, not through cioqKernel, so the view does not escape
// runWindow's stack.
func (f *CIOQFleet) cycle(v *cioqView) {
	switch k := f.kern.(type) {
	case *gmKernel:
		k.cycle(v)
	case *pgKernel:
		k.cycle(v)
	default:
		panic(fmt.Sprintf("fleet: kernel %T has no case in (*CIOQFleet).cycle", k))
	}
}

// transfer moves the head packet of IQ(i,j) to OQ(j) on the bound
// instance, updating the occupancy index exactly as the scalar engine's
// executeTransfers does. Kernels only produce transfers whose destination
// has room. Its caller, the GM kernel, runs on one-word rows: row i is
// voq[i] and the output masks are word 0.
func (v *cioqView) transfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	p := v.iq[q*v.icap+int(h.head)]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voq[i] &^= 1 << uint(j)
	}
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
	v.cnt.in--
	v.cnt.out++
	v.outBusy[0] |= 1 << uint(j)
	if ho.n >= v.outBuf {
		v.outFree[0] &^= 1 << uint(j)
	}
	v.hm.transferred++
}

// ringInsert0 is the depth-0 ringInsert special case, small enough to
// inline at the transfer sites where an empty destination ring is the
// common case (the new packet is trivially the head).
func ringInsert0(buf []pkt, ids []int64, h *qhdr, base int, p pkt, id int64) {
	x := base + int(h.head)
	buf[x] = p
	ids[x] = id
	h.n = 1
}

// ringInsert1 is the depth-1 ringInsert special case (buf/ids already
// sliced at the ring base), inlined at the
// admission sites (shallow input rings make depth 1 the common case
// there). It reports the new head value so weighted callers can refresh
// their head-value lane without reloading the ring.
func ringInsert1(buf []pkt, ids []int64, h *qhdr, capM int32, p pkt, id int64) int64 {
	x0 := int(h.head)
	hv := buf[x0].v
	off := int32(1)
	if hv < p.v || (hv == p.v && ids[x0] >= id) {
		h.head = (h.head - 1) & capM
		off = 0
		hv = p.v
	}
	x := int((h.head + off) & capM)
	buf[x] = p
	ids[x] = id
	h.n = 2
	return hv
}

// ringInsert places (p, id) into the ByValue ring at base..base+cap-1
// keeping (value desc, ID asc) order, reproducing queue.Ring.insert: a
// binary search finds the slot, then the shorter side of the ring shifts
// by one to open it. The header must have room (h.n < capacity).
func ringInsert(buf []pkt, ids []int64, h *qhdr, base int, capM int32, p pkt, id int64) {
	n := h.n
	// Weighted rings are shallow in practice (buffer depths of a few
	// packets), so the depth-0/1 cases skip the search-and-shift
	// machinery. Both leave the same head-relative contents as the
	// general path.
	if n == 0 {
		x := base + int(h.head)
		buf[x] = p
		ids[x] = id
		h.n = 1
		return
	}
	if n == 1 {
		x0 := base + int(h.head)
		var x int
		if bv := buf[x0].v; bv > p.v || (bv == p.v && ids[x0] < id) {
			x = base + int((h.head+1)&capM)
		} else {
			h.head = (h.head - 1) & capM
			x = base + int(h.head)
		}
		buf[x] = p
		ids[x] = id
		h.n = 2
		return
	}
	lo, hi := int32(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		x := base + int((h.head+mid)&capM)
		if bv := buf[x].v; bv > p.v || (bv == p.v && ids[x] < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo <= n-lo {
		// Shift the head segment [0, lo) one slot back.
		h.head = (h.head - 1) & capM
		for k := int32(0); k < lo; k++ {
			dst := base + int((h.head+k)&capM)
			src := base + int((h.head+k+1)&capM)
			buf[dst] = buf[src]
			ids[dst] = ids[src]
		}
	} else {
		// Shift the tail segment [lo, n) one slot forward.
		for k := n; k > lo; k-- {
			dst := base + int((h.head+k)&capM)
			src := base + int((h.head+k-1)&capM)
			buf[dst] = buf[src]
			ids[dst] = ids[src]
		}
	}
	x := base + int((h.head+lo)&capM)
	buf[x] = p
	ids[x] = id
	h.n++
}

// iqInsert is ringInsert on input ring q of the bound instance. Weighted
// callers must refresh the iqHV head-value lane afterwards.
func (v *cioqView) iqInsert(q int, p pkt, id int64) {
	ringInsert(v.iq, v.iqID, &v.iqHdr[q], q*v.icap, v.icapM, p, id)
}

// wtransfer moves the most valuable packet of IQ(i,j) — the ByValue ring
// head — into output queue j on the bound instance, preempting the
// output's least valuable packet when it is full, exactly as the scalar
// engine's executeTransfers does with PreemptIfFull set. Kernels only
// produce transfers the eligibility rule admits, which with the beta >= 1
// of core.Threshold guarantees the preemption is profitable; an
// unprofitable transfer errors here as it does in the scalar engine.
func (v *cioqView) wtransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	var hv int64
	if h.n == 0 {
		v.voq[i*v.wm+j>>6] &^= 1 << uint(j&63)
	} else {
		hv = v.iq[q*v.icap+int(h.head)].v
	}
	if hv != p.v {
		v.iqHV[q] = hv
		if v.idx != nil {
			v.idx.Move(i, j, p.v, hv)
		}
	}
	v.cnt.in--
	ho := &v.oqHdr[j]
	base := j * v.ocap
	wdx, bit := j>>6, uint64(1)<<uint(j&63)
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
		v.outBusy[wdx] |= bit
		v.cnt.out++
	}
	if ho.n == 0 {
		ringInsert0(v.oq, v.oqID, ho, base, p, id)
	} else {
		ringInsert(v.oq, v.oqID, ho, base, v.ocapM, p, id)
	}
	// A preempting insert leaves the queue full; re-clearing the bit is
	// idempotent, so the fullness check is shared by both branches.
	if ho.n >= v.outBuf {
		v.outFree[wdx] &^= bit
	}
	v.hm.transferred++
}

// quiesce advances the bound instance across `jump` arrival-free
// drain-only slots in closed form, mirroring (*switchsim.CIOQ).quiesce:
// each non-empty output queue drains its head packets (see drain).
func (v *cioqView) quiesce(T, jump int) {
	for wdx, w := range v.outBusy {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			j := wdx<<6 | b
			h := &v.oqHdr[j]
			v.cnt.out -= drain(v.oq[j*v.ocap:], h, v.ocapM, v.hm, v.lat, v.series, T, jump)
			if h.n == 0 {
				v.outBusy[wdx] &^= 1 << uint(b)
			}
		}
	}
	v.hm.sampled += int64(jump)
}

// validate cross-checks instance k's occupancy index and counters against
// the ring contents (full rescan; Validate mode only).
func (f *CIOQFleet) validate(k, T int) error {
	var in, out int32
	c := f.cnt[k]
	outFree := bitset.Mask(f.outFree[k*f.wm : (k+1)*f.wm])
	outBusy := bitset.Mask(f.outBusy[k*f.wm : (k+1)*f.wm])
	for i := 0; i < f.n; i++ {
		row := bitset.Mask(f.voq[(k*f.n+i)*f.wm : (k*f.n+i+1)*f.wm])
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
			if f.iqID != nil && !ringOrdered(f.iq, f.iqID, f.iqHdr[q], q*f.icap, int32(f.icap-1)) {
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
		if f.oqID != nil && !ringOrdered(f.oq, f.oqID, f.oqHdr[k*f.m+j], (k*f.m+j)*f.ocap, int32(f.ocap-1)) {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] not in ByValue order", T, k, j)
		}
		if got, want := outFree.Test(j), l < f.outBuf; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutFree bit %d = %v, len=%d", T, k, j, got, l)
		}
		if got, want := outBusy.Test(j), l > 0; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutBusy bit %d = %v, len=%d", T, k, j, got, l)
		}
	}
	if in != c.in || out != c.out {
		return fmt.Errorf("fleet: slot %d instance %d: counters (in=%d,out=%d) but queues hold (%d,%d)",
			T, k, c.in, c.out, in, out)
	}
	for q := k * f.nm; f.iqHV != nil && q < (k+1)*f.nm; q++ {
		want, h := int64(0), f.iqHdr[q]
		if h.n > 0 {
			want = f.iq[q*f.icap+int(h.head)].v
		}
		if f.iqHV[q] != want {
			return fmt.Errorf("fleet: slot %d instance %d: head lane for IQ[%d][%d] = %d, queue head value %d", T, k, q%f.nm/f.m, q%f.m, f.iqHV[q], want)
		}
	}
	if f.idx != nil {
		if err := f.idx[k].Check("IQ", f.iqHV[k*f.nm:(k+1)*f.nm], f.n, f.m); err != nil {
			return fmt.Errorf("fleet: slot %d instance %d: %w", T, k, err)
		}
	}
	return nil
}

// ringOrdered reports whether the ring segment holds ByValue order
// (value descending, ties by ascending ID) from head to tail.
func ringOrdered(buf []pkt, ids []int64, h qhdr, base int, capM int32) bool {
	for x := int32(1); x < h.n; x++ {
		a := base + int((h.head+x-1)&capM)
		b := base + int((h.head+x)&capM)
		if buf[a].v < buf[b].v || (buf[a].v == buf[b].v && ids[a] >= ids[b]) {
			return false
		}
	}
	return true
}
