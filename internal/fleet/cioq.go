package fleet

import (
	"fmt"
	"math/bits"

	"qswitch/internal/matching"
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

// ports is the per-instance port-occupancy summary: single-word output
// masks and layer counters, packed so a slot touches one cache line.
type ports struct {
	outFree, outBusy              uint64
	inCount, crossCount, outCount int32
	_                             int32
}

// CIOQFleet is a batch of B independent CIOQ switch instances sharing one
// configuration and one policy kernel, stepped in lockstep windows over a
// global slot clock. All switch state is columnar (see the package
// documentation); storage is sized once at construction and reused across
// Reset, so steady-state stepping never allocates.
type CIOQFleet struct {
	lockstep
	kern   cioqKernel
	n, m   int
	nm     int
	icap   int // input-queue ring size (power of two)
	ocap   int // output-queue ring size (power of two)
	inBuf  int32
	outBuf int32
	allIn  uint64 // mask of all n input ports

	// Columnar switch state: per-instance blocks inside flat arrays.
	voq      []uint64 // [k*n+i]: outputs j with IQ(k,i,j) non-empty
	voqByOut []uint64 // [k*m+j]: inputs i with IQ(k,i,j) non-empty
	st       []ports  // [k]
	iq       []pkt    // [(k*nm + i*m + j)*icap + pos]
	iqHdr    []qhdr   // [k*nm + i*m + j]
	oq       []pkt    // [(k*m + j)*ocap + pos]
	oqHdr    []qhdr   // [k*m + j]

	// ID lanes, allocated only for weighted kernels: the ByValue queue
	// discipline breaks value ties on packet ID, so weighted rings carry
	// the ID alongside the pkt payload (same indexing as iq/oq).
	iqID []int64
	oqID []int64

	// iqHV caches each input ring's head value ([k*nm + q], weighted
	// kernels only): the schedulers scan every occupied VOQ head per
	// cycle, and the flat lane replaces the dependent header+ring load
	// pair on that path. Entries are refreshed wherever the ring head
	// changes and are read only under a set voq bit.
	iqHV []int64

	view cioqView

	// Kernel state and scratch.
	rrGrant  []int32 // [k*m+j]: RoundRobin per-output grant pointer
	rrAccept []int32 // [k*n+i]: RoundRobin per-input accept pointer
	grants   []uint64
	edges    []matching.Edge
	sched    matching.WeightedScheduler
	hung     matching.HungarianSolver
	wkeys    []uint32 // packed (w<<12|i<<6|j) eligible edges, (i,j)-ascending
	wsorted  []uint32 // counting-scatter output, weight-descending
	wcnt     []int32  // per-weight bucket counts/offsets
	wcntHi   int32    // dirty prefix of wcnt to clear next cycle
}

// cioqView is the per-instance working set bound once per window: small
// slices over the instance's blocks plus copies of the loop constants, so
// the slot body and the kernels index tiny slices instead of recomputing
// global offsets per operation.
type cioqView struct {
	f        *CIOQFleet
	k        int
	st       *ports
	hm       *hotCtr
	lat      *switchsim.Metrics // nil unless RecordLatency
	voq      []uint64
	voqByOut []uint64
	iqHdr    []qhdr
	iq       []pkt
	oqHdr    []qhdr
	oq       []pkt
	series   []int64
	rrG, rrA []int32
	iqHV     []int64

	n, m, nm       int
	icapM, ocapM   int32 // ring index masks (capacity-1)
	icap, ocap     int
	inBuf, outBuf  int32
	speedup        int
	recLat, recSer bool
	wantByOut      bool // kernel reads voqByOut; maintain it
	weighted       bool // ByValue rings with ID lanes and preemption
	allIn          uint64

	// ID lanes (weighted kernels only); same indexing as iq/oq.
	iqID []int64
	oqID []int64

	// Direct pass-through delivery: a packet transferred into an empty
	// output queue is necessarily that slot's transmit head, so its
	// payload parks in pend[j] (direct bit set) instead of doing a ring
	// store/load round-trip; the header still advances as if it had been
	// written, keeping ring geometry consistent at any speedup. Weighted
	// kernels never use it: a ByValue insertion can land anywhere in the
	// ring, so their transfers always do the ring store.
	direct uint64
	pend   []pkt
}

// bind points the view at instance k.
func (v *cioqView) bind(f *CIOQFleet, k int) {
	v.f = f
	v.k = k
	v.st = &f.st[k]
	v.hm = &f.hot[k]
	if f.cfg.RecordLatency {
		v.lat = &f.ms[k]
	}
	v.voq = f.voq[k*f.n : (k+1)*f.n]
	v.voqByOut = f.voqByOut[k*f.m : (k+1)*f.m]
	v.iqHdr = f.iqHdr[k*f.nm : (k+1)*f.nm]
	v.iq = f.iq[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
	v.oqHdr = f.oqHdr[k*f.m : (k+1)*f.m]
	v.oq = f.oq[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
	if f.cfg.RecordSeries {
		v.series = f.series[k]
	}
	if f.rrGrant != nil {
		v.rrG = f.rrGrant[k*f.m : (k+1)*f.m]
		v.rrA = f.rrAccept[k*f.n : (k+1)*f.n]
	}
	if f.iqID != nil {
		v.iqID = f.iqID[k*f.nm*f.icap : (k+1)*f.nm*f.icap]
		v.oqID = f.oqID[k*f.m*f.ocap : (k+1)*f.m*f.ocap]
		v.iqHV = f.iqHV[k*f.nm : (k+1)*f.nm]
	}
}

// NewCIOQFleet sizes a fleet of `batch` instances for the configuration
// and policy family produced by factory. It returns ErrUnsupported
// (possibly wrapped) when the policy has no batched kernel or the
// geometry exceeds the columnar engine's 64-port limit; callers wanting
// transparent fallback use a CIOQRunner instead.
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
	if cfg.Inputs > maxPorts || cfg.Outputs > maxPorts {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, maxPorts, ErrUnsupported)
	}
	n, m := cfg.Inputs, cfg.Outputs
	f := &CIOQFleet{
		kern: kern, n: n, m: m, nm: n * m,
		icap: ceilPow2(cfg.InputBuf), ocap: ceilPow2(cfg.OutputBuf),
		inBuf: int32(cfg.InputBuf), outBuf: int32(cfg.OutputBuf),
		allIn: allOnes(n),
	}
	f.lockstep = newLockstep(cfg, pol.Name(), batch, f)
	f.voq = make([]uint64, batch*n)
	f.voqByOut = make([]uint64, batch*m)
	f.st = make([]ports, batch)
	f.iq = make([]pkt, batch*f.nm*f.icap)
	f.iqHdr = make([]qhdr, batch*f.nm)
	f.oq = make([]pkt, batch*m*f.ocap)
	f.oqHdr = make([]qhdr, batch*m)
	v := &f.view
	v.n, v.m, v.nm = n, m, f.nm
	v.icap, v.ocap = f.icap, f.ocap
	v.icapM, v.ocapM = int32(f.icap-1), int32(f.ocap-1)
	v.inBuf, v.outBuf = f.inBuf, f.outBuf
	v.speedup = cfg.Speedup
	v.recLat, v.recSer = cfg.RecordLatency, cfg.RecordSeries
	v.wantByOut = kern.wantsVOQByOut() || cfg.Validate
	v.allIn = f.allIn
	v.pend = make([]pkt, m)
	if kern.weighted() {
		v.weighted = true
		f.iqID = make([]int64, batch*f.nm*f.icap)
		f.oqID = make([]int64, batch*m*f.ocap)
		f.iqHV = make([]int64, batch*f.nm)
	}
	kern.reset(f)
	return f, nil
}

// Reset loads a new batch of arrival sequences (one per instance; the
// slice length may be anything up to the construction batch size, so one
// fleet serves a chunk stream whose final chunk runs short) and rewinds
// every loaded instance to slot 0. Switch storage is reused.
//
// Sequences are validated lazily rather than with an up-front pass: port
// and value violations surface as errors when the packet is admitted, and
// an unsorted sequence is detected at the instance's retirement (see
// checkResidual). ID monotonicity — which the FIFO unit-value family
// never observes — is the caller's responsibility, as with every
// generator-produced sequence.
func (f *CIOQFleet) Reset(seqs []packet.Sequence) error {
	if err := f.load(seqs); err != nil {
		return err
	}
	clear(f.voq)
	clear(f.voqByOut)
	clear(f.iqHdr)
	clear(f.oqHdr)
	for k := range f.st {
		f.st[k] = ports{outFree: allOnes(f.m)}
	}
	f.view.direct = 0
	f.kern.reset(f)
	return nil
}

// runWindow simulates instance k from its current slot up to the window
// end: admissions, Speedup kernel cycles, transmission, occupancy
// sampling and the quiescent fast path, slot by slot, on the bound view.
func (f *CIOQFleet) runWindow(k int32, end int) instStatus {
	kk := int(k)
	v := &f.view
	v.bind(f, kk)
	seq := f.seqs[kk]
	nx := f.next[kk]
	horizon := f.horizon[kk]
	st := v.st
	hm := v.hm
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
		// preempting admission, so the index bits stay put).
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
				switch h.n {
				case 0:
					ringInsert0(v.iq, v.iqID, h, q*v.icap, np, p.ID)
					v.iqHV[q] = np.v
				case 1:
					b := q * v.icap
					v.iqHV[q] = ringInsert1(v.iq[b:], v.iqID[b:], h, v.icapM, np, p.ID)
				default:
					v.iqInsert(q, np, p.ID)
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
			if v.wantByOut {
				v.voqByOut[p.Out] |= 1 << uint(p.In)
			}
			st.inCount++
			aAcc++
			aAccV += p.Value
		}

		for c := 0; c < v.speedup; c++ {
			f.kern.cycle(v, T, c)
		}
		if f.err != nil {
			// A weighted transfer hit an ineligible full destination (only
			// possible with a sub-1 user beta, where the scalar engine
			// errors identically).
			return instErr
		}

		// Transmission: every non-empty output queue sends its head.
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
		oOut += int64(st.outCount)
		oSamp++

		if f.cfg.Validate {
			if err := f.validate(kk, T); err != nil {
				f.err = err
				return instErr
			}
		}

		// Quiescent fast path: with no input-side packets no kernel cycle
		// can produce a transfer, so the stretch until the next arrival is
		// pure output drain advanced in closed form. The ported kernels'
		// only slot-dependent state is derived from the clock (see
		// kernels.go), so no per-policy idle hook is needed.
		if !f.cfg.Dense && st.inCount == 0 {
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
			return f.retire(k, int64(st.inCount)+int64(st.outCount))
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

// transfer moves the head packet of IQ(i,j) to OQ(j) on the bound
// instance, updating the occupancy index exactly as the scalar engine's
// executeTransfers does. Kernels only produce transfers whose destination
// has room.
func (v *cioqView) transfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	p := v.iq[q*v.icap+int(h.head)]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voq[i] &^= 1 << uint(j)
		if v.wantByOut {
			v.voqByOut[j] &^= 1 << uint(i)
		}
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
	st := v.st
	st.inCount--
	st.outBusy |= 1 << uint(j)
	if ho.n >= v.outBuf {
		st.outFree &^= 1 << uint(j)
	}
	st.outCount++
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
// produce transfers the eligibility rule admits, which with beta >= 1
// guarantees the preemption is profitable; a sub-1 beta can produce an
// unprofitable transfer, which errors here as it does in the scalar
// engine.
func (v *cioqView) wtransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		v.voq[i] &^= 1 << uint(j)
		if v.wantByOut {
			v.voqByOut[j] &^= 1 << uint(i)
		}
	} else {
		v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
	}
	st := v.st
	st.inCount--
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
	// A preempting insert leaves the queue full; re-clearing the bit is
	// idempotent, so the fullness check is shared by both branches.
	if ho.n >= v.outBuf {
		st.outFree &^= 1 << uint(j)
	}
	v.hm.transferred++
}

// quiesce advances the bound instance across `jump` arrival-free
// drain-only slots in closed form, mirroring (*switchsim.CIOQ).quiesce:
// each non-empty output queue drains its head packets (see drain).
func (v *cioqView) quiesce(T, jump int) {
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

// validate cross-checks instance k's occupancy index and counters against
// the ring contents (full rescan; Validate mode only).
func (f *CIOQFleet) validate(k, T int) error {
	var in, out int32
	st := &f.st[k]
	for i := 0; i < f.n; i++ {
		row := f.voq[k*f.n+i]
		for j := 0; j < f.m; j++ {
			l := f.iqHdr[k*f.nm+i*f.m+j].n
			in += l
			if l < 0 || l > f.inBuf {
				return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] length %d out of range", T, k, i, j, l)
			}
			if got, want := row&(1<<uint(j)) != 0, l > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQ[%d] bit %d = %v, len=%d", T, k, i, j, got, l)
			}
			if got, want := f.voqByOut[k*f.m+j]&(1<<uint(i)) != 0, l > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQByOut[%d] bit %d = %v, len=%d", T, k, j, i, got, l)
			}
			if f.iqID != nil && !ringOrdered(f.iq, f.iqID, f.iqHdr[k*f.nm+i*f.m+j], (k*f.nm+i*f.m+j)*f.icap, int32(f.icap-1)) {
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
		if got, want := st.outFree&(1<<uint(j)) != 0, l < f.outBuf; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutFree bit %d = %v, len=%d", T, k, j, got, l)
		}
		if got, want := st.outBusy&(1<<uint(j)) != 0, l > 0; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutBusy bit %d = %v, len=%d", T, k, j, got, l)
		}
	}
	if in != st.inCount || out != st.outCount {
		return fmt.Errorf("fleet: slot %d instance %d: counters (in=%d,out=%d) but queues hold (%d,%d)",
			T, k, st.inCount, st.outCount, in, out)
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
