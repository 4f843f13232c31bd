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
// words, transfers always do the ring store (no pass-through buffer, so
// passCount stays zero), and the greedy weighted matching is the shared
// matching.WeightedScheduler.
type wideCIOQFleet struct {
	lockstep
	beta   float64 // PG's resolved preemption factor
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

	// ID lanes; see CIOQFleet.
	iqID []int64
	oqID []int64

	view wideCIOQView

	// Matching scratch.
	edges []matching.Edge
	sched matching.WeightedScheduler
}

// wideCIOQView is the per-instance working set of a wide CIOQ instance;
// see cioqView.
type wideCIOQView struct {
	f       *wideCIOQFleet
	st      *wideCtr
	hm      *hotCtr
	lat     *switchsim.Metrics // nil unless RecordLatency
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
	if f.cfg.RecordLatency {
		v.lat = &f.ms[k]
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
		beta: cioqKernelFor(pol).(*pgKernel).beta, n: n, m: m, nm: n * m, wm: bitset.Words(m),
		icap: ceilPow2(cfg.InputBuf), ocap: ceilPow2(cfg.OutputBuf),
		inBuf: int32(cfg.InputBuf), outBuf: int32(cfg.OutputBuf),
	}
	f.lockstep = newLockstep(cfg, pol.Name(), batch, f)
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

// Reset loads a new batch of sequences; see (*CIOQFleet).Reset.
func (f *wideCIOQFleet) Reset(seqs []packet.Sequence) error {
	if err := f.load(seqs); err != nil {
		return err
	}
	f.voq.Zero()
	f.outBusy.Zero()
	clear(f.iqHdr)
	clear(f.oqHdr)
	clear(f.st)
	for k := 0; k < f.batch; k++ {
		f.outFree[k*f.wm : (k+1)*f.wm].Fill(f.m)
	}
	return nil
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
			return f.retire(k, int64(st.in)+int64(st.out))
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
// ascending — the order the scheduler's counting-sort path requires —
// matched greedily by weight, and each match is executed with output-side
// preemption.
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
	for _, e := range f.sched.GreedyMaximalWeighted(v.n, v.m, edges) {
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
	ob := v.outBusy
	for wdx, word := range ob {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			j := wdx<<6 + b
			h := &v.oqHdr[j]
			st.out -= drain(v.oq[j*v.ocap:], h, v.ocapM, v.hm, v.lat, v.series, T, jump)
			if h.n == 0 {
				ob[wdx] &^= 1 << uint(b)
			}
		}
	}
	v.hm.sampled += int64(jump)
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
