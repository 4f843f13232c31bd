package fleet

import (
	"math/bits"

	"qswitch/internal/core"
	"qswitch/internal/matching"
	"qswitch/internal/switchsim"
)

// cioqKernel is the batched counterpart of a scalar CIOQ policy's
// Schedule method. One cycle call computes the policy's matching for the
// bound instance from the columnar occupancy index and executes each
// transfer inline via view.transfer. A kernel must reproduce the scalar
// policy's decisions exactly: eligibility is read from the state the
// scalar engine would expose to the policy at the start of the cycle
// (snapshot words where interleaved execution could otherwise leak into
// later picks). No kernel keeps state that depends on the slot or the
// cycle, so a cycle reads only the view and quiescent jumps need no
// per-policy hook. The engine calls a kernel's cycle method by concrete
// type, in (*CIOQFleet).cycle, so a new kernel needs a case there.
type cioqKernel interface {
	reset(f *CIOQFleet)
	// weighted reports whether the kernel's policy family uses the
	// ByValue queue discipline; the engine then allocates ID lanes and
	// switches admission and transfers to preemptive ByValue insertion.
	weighted() bool
	// portLimit is the widest geometry the kernel batches: maxPorts for
	// GM, which reads one-word rows, maxWidePorts for PG.
	portLimit() int
}

// crossbarKernel is the batched counterpart of a scalar crossbar policy's
// two subphases, under the same exactness contract as cioqKernel; its
// cycle method is called by concrete type, in (*CrossbarFleet).cycle.
type crossbarKernel interface {
	// weighted is as in cioqKernel.
	weighted() bool
}

// cioqKernelFor maps a scalar policy to its batched kernel, or nil when
// the policy has none (the caller then falls back to the scalar engine):
// row-major GM and PG. Matching is by concrete type, so wrappers and
// subclasses safely miss.
func cioqKernelFor(pol switchsim.CIOQPolicy) cioqKernel {
	switch p := pol.(type) {
	case *core.GM:
		if p.Order == core.RowMajor {
			return &gmKernel{}
		}
	case *core.PG:
		return &pgKernel{beta: core.Threshold(p.Beta, core.DefaultBetaPG())}
	}
	return nil
}

// crossbarKernelFor is cioqKernelFor for crossbar policies: plain CGU and
// CPG.
func crossbarKernelFor(pol switchsim.CrossbarPolicy) crossbarKernel {
	switch p := pol.(type) {
	case *core.CGU:
		if !p.RotatePick {
			return &cguKernel{}
		}
	case *core.CPG:
		return &cpgKernel{beta: core.Threshold(p.Beta, core.DefaultBetaCPG()), alpha: core.Threshold(p.Alpha, core.DefaultAlphaCPG())}
	}
	return nil
}

// gmKernel is the batched row-major GM scheduler: a greedy maximal
// matching over the eligibility words {voq row ∧ free outputs}, each
// input in turn taking its lowest free output.
type gmKernel struct{}

func (g *gmKernel) reset(f *CIOQFleet) {}

func (g *gmKernel) weighted() bool { return false }

func (g *gmKernel) portLimit() int { return maxPorts }

func (g *gmKernel) cycle(v *cioqView) {
	avail := v.outFree[0]
	for i := 0; i < v.n; i++ {
		if w := v.voq[i] & avail; w != 0 {
			j := bits.TrailingZeros64(w)
			avail &^= 1 << uint(j)
			v.transfer(i, j)
		}
	}
}

// pgKernel is the batched PG scheduler: a greedy maximal matching by head
// value over the eligible VOQ heads (destination open, or the head beats
// beta times the destination's least valuable packet), each transfer
// executed with output-side preemption. The kernel bakes in the beta
// core.Threshold resolves, as the scalar policy's Reset does. Up to 64
// ports a cycle
// walks the instance's head-value index, as the scalar policy does; past
// 64 ports, and in any cycle with a head outside [1,
// switchsim.MaxIndexedValue], it takes the multi-word edge scan.
type pgKernel struct {
	beta  float64
	xfers []switchsim.Transfer // the walk's matching
	edges []matching.Edge      // the edge scan's eligible edges
	sched *matching.WeightedScheduler
}

// reset sizes the walk's scratch when the fleet keeps indexes; the edge
// scan's is sized at its first cycle, which a run whose heads all stay in
// the index's range never reaches.
func (g *pgKernel) reset(f *CIOQFleet) {
	if f.idx != nil && g.xfers == nil {
		g.xfers = make([]switchsim.Transfer, 0, min(f.n, f.m))
	}
}

func (g *pgKernel) weighted() bool { return true }

func (g *pgKernel) portLimit() int { return maxWidePorts }

func (g *pgKernel) cycle(v *cioqView) {
	if x := v.idx; x != nil && x.Ready() {
		g.walk(v, x)
		return
	}
	g.genericCycle(v)
}

// walk is the cycle on the instance's head-value index
// (switchsim.HeadIndex.Greedy, the scalar PG's walk). The matching is
// taken before any transfer runs, so the transfers' index updates cannot
// feed back into it.
func (g *pgKernel) walk(v *cioqView, x *switchsim.HeadIndex) {
	g.xfers = x.Greedy(g.xfers[:0], v.m, v.outFree[0], func(j int, hv int64) bool {
		ho := &v.oqHdr[j]
		return float64(hv) > g.beta*float64(v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v)
	})
	for _, t := range g.xfers {
		v.wtransfer(t.In, t.Out)
	}
}

// genericCycle is the multi-word edge scan: it enumerates the eligible
// edges word by word along each input's occupancy row, in (input, output)
// order as the scheduler's counting-sort path requires, and defers to the
// weighted scheduler. It serves every cycle past 64 ports and the cycles
// whose index is not Ready.
func (g *pgKernel) genericCycle(v *cioqView) {
	if g.sched == nil {
		g.sched = new(matching.WeightedScheduler)
		g.edges = make([]matching.Edge, 0, v.nm)
	}
	edges := g.edges[:0]
	for i := 0; i < v.n; i++ {
		for wdx, w := range v.voq[i*v.wm : (i+1)*v.wm] {
			of := v.outFree[wdx]
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				j := wdx<<6 | b
				q := i*v.m + j
				hv := v.iqHV[q]
				if of&(1<<uint(b)) == 0 {
					ho := &v.oqHdr[j]
					tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
					if float64(hv) <= g.beta*float64(tv) {
						continue
					}
				}
				edges = append(edges, matching.Edge{U: i, V: j, W: hv})
			}
		}
	}
	g.edges = edges
	for _, e := range g.sched.GreedyMaximalWeighted(v.n, v.m, edges) {
		v.wtransfer(e.U, e.V)
	}
}

// cpgKernel is the batched CPG scheduler. Input subphase: each input
// forwards its best eligible VOQ head (ByValue order over heads;
// eligibility is crosspoint-open or head beats beta times the crosspoint
// tail) to the crosspoint. Output subphase: each output pulls the best
// occupied-crosspoint head, transferring only if the output queue is open
// or the head beats alpha times the output tail. The scalar policy picks
// every input's (and then every output's) move from the subphase-start
// snapshot; picks here execute immediately, which is equivalent because a
// pick reads only state that its own port's transfer mutates.
type cpgKernel struct {
	beta, alpha float64
}

func (c *cpgKernel) weighted() bool { return true }

func (c *cpgKernel) cycle(v *crossbarView) {
	for i := 0; i < v.n; i++ {
		w := v.voq[i]
		xfree := v.xFree[i]
		bestJ := -1
		haveID := false
		var bestV, bestID int64
		for w != 0 {
			j := bits.TrailingZeros64(w)
			w &= w - 1
			q := i*v.m + j
			hv := v.iqHV[q]
			if bestJ >= 0 && hv < bestV {
				// A dominated head can never become the pick, eligible
				// or not: skip the crosspoint-tail load and the beta
				// comparison outright.
				continue
			}
			if xfree&(1<<uint(j)) == 0 {
				hx := &v.xqHdr[q]
				tv := v.xq[q*v.xcap+int((hx.head+hx.n-1)&v.xcapM)].v
				// beta >= 1: the integer compare rejects without the
				// float math on the common path.
				if hv <= tv || float64(hv) <= c.beta*float64(tv) {
					continue
				}
			}
			// Head IDs break value ties, so their (header, ring) load
			// pairs are deferred until a tie actually happens.
			if bestJ < 0 || hv > bestV {
				bestJ, bestV = j, hv
				haveID = false
			} else {
				if !haveID {
					bq := i*v.m + bestJ
					bestID = v.iqID[bq*v.icap+int(v.iqHdr[bq].head)]
					haveID = true
				}
				if hid := v.iqID[q*v.icap+int(v.iqHdr[q].head)]; hid < bestID {
					bestJ, bestID = j, hid
				}
			}
		}
		if bestJ >= 0 {
			v.wInputTransfer(i, bestJ)
		}
	}
	for j := 0; j < v.m; j++ {
		w := v.xBusyByOut[j]
		bestI := -1
		haveID := false
		var bestV, bestID int64
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &= w - 1
			hv := v.xqHV[j*v.n+i] // transposed lane: sequential in i
			if bestI < 0 || hv > bestV {
				bestI, bestV = i, hv
				haveID = false
			} else if hv == bestV {
				// Same lazy tie-break as the input subphase.
				if !haveID {
					bq := bestI*v.m + j
					bestID = v.xqID[bq*v.xcap+int(v.xqHdr[bq].head)]
					haveID = true
				}
				q := i*v.m + j
				if hid := v.xqID[q*v.xcap+int(v.xqHdr[q].head)]; hid < bestID {
					bestI, bestID = i, hid
				}
			}
		}
		if bestI < 0 {
			continue
		}
		if v.st.outFree&(1<<uint(j)) == 0 {
			ho := &v.oqHdr[j]
			tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
			// alpha >= 1: same integer pre-reject as the input subphase.
			if bestV <= tv || float64(bestV) <= c.alpha*float64(tv) {
				continue
			}
		}
		v.wOutputTransfer(bestI, j)
	}
}

// cguKernel is the batched CGU scheduler: per input, move the head of the
// first non-empty VOQ whose crosspoint has room; per open output, pull
// from the first non-empty crosspoint.
type cguKernel struct{}

func (c *cguKernel) weighted() bool { return false }

func (c *cguKernel) cycle(v *crossbarView) {
	for i := 0; i < v.n; i++ {
		if w := v.voq[i] & v.xFree[i]; w != 0 {
			v.inputTransfer(i, bits.TrailingZeros64(w))
		}
	}
	ofw := v.st.outFree
	for ofw != 0 {
		j := bits.TrailingZeros64(ofw)
		ofw &= ofw - 1
		if w := v.xBusyByOut[j]; w != 0 {
			v.outputTransfer(bits.TrailingZeros64(w), j)
		}
	}
}
