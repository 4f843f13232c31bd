package offline

import (
	"fmt"
	"runtime"
	"sync"

	"qswitch/internal/flow"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// OQUpperBound computes the per-output time-expanded relaxation for a
// CIOQ geometry. crossbar adds the crosspoint buffers to the relaxed
// capacity. The result is an upper bound on the benefit of ANY schedule —
// online or offline — for the given configuration and sequence.
func OQUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	var s UpperBoundSolver
	return s.OQUpperBound(cfg, seq, crossbar)
}

// InputUpperBound is the input-side counterpart of OQUpperBound: each
// input port i is relaxed to a single time-expanded queue holding all of
// its virtual output queues (capacity M·B_in [+ M·B_x]), drained at the
// fabric rate of ŝ transfers per slot, with transferred value counting as
// delivered (outputs fully relaxed). Any feasible schedule maps into this
// relaxation, so it is another valid upper bound — tight when the fabric,
// not the output links, is the bottleneck.
func InputUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	var s UpperBoundSolver
	return s.InputUpperBound(cfg, seq, crossbar)
}

// CombinedUpperBound returns the tighter of the output-side and
// input-side relaxations. Both dominate every feasible schedule, so their
// minimum is still a valid upper bound on OPT. The sequence is validated
// and swept once for both sides.
func CombinedUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	var s UpperBoundSolver
	return s.CombinedUpperBound(cfg, seq, crossbar)
}

// UpperBoundSolver computes the relaxation upper bounds in one forward
// pass over the sequence, one sweepQueue per relaxed port, with fully
// reusable scratch: the queues' heaps survive across calls, so a judge
// that evaluates one sequence after another allocates nothing in steady
// state. The zero value is ready to use. Solvers are not safe for
// concurrent use; the package functions (OQUpperBound, InputUpperBound,
// CombinedUpperBound) are one-shot sweeps on a fresh solver.
type UpperBoundSolver struct {
	out []sweepQueue // per output: outCap, one send a slot
	in  []sweepQueue // per input: inCap, Speedup sends a slot
}

// relaxedCaps returns the single-queue buffer capacities of the
// output-side and input-side relaxations.
func relaxedCaps(cfg switchsim.Config, crossbar bool) (outCap, inCap int64) {
	outCap = int64(cfg.Inputs)*int64(cfg.InputBuf) + int64(cfg.OutputBuf)
	inCap = int64(cfg.Outputs) * int64(cfg.InputBuf)
	if crossbar {
		outCap += int64(cfg.Inputs) * int64(cfg.CrossBuf)
		inCap += int64(cfg.Outputs) * int64(cfg.CrossBuf)
	}
	return outCap, inCap
}

// growQueues resizes a queue table to n reset ports, keeping heap storage.
func growQueues(qs []sweepQueue, n int) []sweepQueue {
	if cap(qs) < n {
		qs = append(qs[:cap(qs)], make([]sweepQueue, n-cap(qs))...)
	}
	qs = qs[:n]
	for k := range qs {
		qs[k].reset()
	}
	return qs
}

// OQUpperBound is the output-side relaxation; see the package function.
func (s *UpperBoundSolver) OQUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	out, _, err := s.sweep(cfg, seq, crossbar, true, false)
	return out, err
}

// InputUpperBound is the input-side relaxation; see the package function.
func (s *UpperBoundSolver) InputUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	_, in, err := s.sweep(cfg, seq, crossbar, false, true)
	return in, err
}

// CombinedUpperBound is min(output-side, input-side) from one pass; see
// the package function.
func (s *UpperBoundSolver) CombinedUpperBound(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	out, in, err := s.sweep(cfg, seq, crossbar, true, true)
	return min(out, in), err
}

// sweep validates the sequence and feeds every packet due before the
// horizon to its output's and/or its input's relaxed queue, in one pass,
// then settles every queue at the horizon and returns the per-side sums.
// The probes see one solve per relaxed queue, flushed once per call.
func (s *UpperBoundSolver) sweep(cfg switchsim.Config, seq packet.Sequence, crossbar, outSide, inSide bool) (out, in int64, _ error) {
	if err := cfg.Check(crossbar); err != nil {
		return 0, 0, err
	}
	slots := cfg.HorizonFor(seq)
	outCap, inCap := relaxedCaps(cfg, crossbar)
	speedup := int64(cfg.Speedup)
	s.out, s.in = s.out[:0], s.in[:0]
	var sides int64
	if outSide {
		s.out = growQueues(s.out, cfg.Outputs)
		sides++
	}
	if inSide {
		s.in = growQueues(s.in, cfg.Inputs)
		sides++
	}
	var due int64
	v := packet.NewValidator(cfg.Inputs, cfg.Outputs)
	for k := range seq {
		p := &seq[k]
		if !v.Accept(p) {
			return 0, 0, fmt.Errorf("offline: bad sequence: %w", v.Reject(p))
		}
		if p.Arrival >= slots {
			continue
		}
		due++
		if outSide {
			s.out[p.Out].arrive(p.Arrival, p.Value, outCap, 1)
		}
		if inSide {
			s.in[p.In].arrive(p.Arrival, p.Value, inCap, speedup)
		}
	}
	var epochs int64
	for k := range s.out {
		out += s.out[k].settle(slots, 1)
		epochs += s.out[k].epochs
	}
	for k := range s.in {
		in += s.in[k].settle(slots, speedup)
		epochs += s.in[k].epochs
	}
	judgeProbes.Load().RecordSolves(int64(len(s.out)+len(s.in)), due*sides, epochs)
	return out, in, nil
}

// check validates the configuration and sequence once per call.
func check(cfg switchsim.Config, seq packet.Sequence, crossbar bool) error {
	if err := cfg.Check(crossbar); err != nil {
		return err
	}
	if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
		return fmt.Errorf("offline: bad sequence: %w", err)
	}
	return nil
}

// partition splits the packets due before the horizon into per-port
// buckets for the flow reference. Either destination may be nil to skip
// that side.
func partition(seq packet.Sequence, slots int, byOut, byIn [][]packet.Packet) {
	for _, p := range seq {
		if p.Arrival >= slots {
			continue
		}
		if byOut != nil {
			byOut[p.Out] = append(byOut[p.Out], p)
		}
		if byIn != nil {
			byIn[p.In] = append(byIn[p.In], p)
		}
	}
}

// sumParallel evaluates f(0..n-1) across a bounded worker pool and sums
// the results: the flow reference's per-port solves are independent and
// cost milliseconds each, so they scale with cores; small n falls back to
// a plain loop.
func sumParallel(n int, f func(int) int64) int64 {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 || n < 4 {
		var total int64
		for k := 0; k < n; k++ {
			total += f(k)
		}
		return total
	}
	partial := make([]int64, n)
	var wg sync.WaitGroup
	work := make(chan int, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				partial[k] = f(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		work <- k
	}
	close(work)
	wg.Wait()
	var total int64
	for _, v := range partial {
		total += v
	}
	return total
}

// SingleQueueOPT computes the exact offline optimum of the bounded-buffer
// single-queue problem: packets arrive at given slots, the buffer holds at
// most bufCap packets at any time, one packet is transmitted per slot, and
// preemption (discarding buffered packets) is free. This is exactly the
// offline problem faced by one output port of an ideal OQ switch, solved
// by one forward sweep (see sweepQueue); SingleQueueOPTFlow is the retained
// min-cost-flow reference, exact-equal on every instance.
func SingleQueueOPT(pkts []packet.Packet, slots int, bufCap int64) int64 {
	var q QueueOPTSolver
	return q.Solve(pkts, slots, bufCap, 1)
}

// SingleQueueOPTFlow solves the same bounded-buffer single-queue problem
// as QueueOPTSolver.Solve via min-cost flow on the time-expanded line
// graph — two nodes per slot plus one per packet. It is kept as the
// differential reference for the sweep (and as the honest "before" judge
// in the BENCH_5 comparisons); both return identical values on every
// instance, which the offline test suite and FuzzSingleQueueOPT pin.
func SingleQueueOPTFlow(pkts []packet.Packet, slots int, bufCap, sendCap int64) int64 {
	if len(pkts) == 0 || slots == 0 {
		return 0
	}
	// Nodes: 0 = source, 1 = sink, then per slot t two nodes (in, out)
	// forming the node-capacity gadget, then one node per packet.
	base := 2
	slotIn := func(t int) int { return base + 2*t }
	slotOut := func(t int) int { return base + 2*t + 1 }
	pktNode := func(k int) int { return base + 2*slots + k }
	m := flow.NewMCMF(base + 2*slots + len(pkts))
	for t := 0; t < slots; t++ {
		// Buffer holds at most bufCap packets during a slot...
		m.AddEdge(slotIn(t), slotOut(t), bufCap, 0)
		// ...of which up to sendCap may depart...
		m.AddEdge(slotOut(t), 1, sendCap, 0)
		// ...and the rest carried to the next slot.
		if t+1 < slots {
			m.AddEdge(slotOut(t), slotIn(t+1), bufCap, 0)
		}
	}
	for k, p := range pkts {
		if p.Arrival >= slots {
			continue
		}
		m.AddEdge(0, pktNode(k), 1, -p.Value)
		m.AddEdge(pktNode(k), slotIn(p.Arrival), 1, 0)
	}
	_, benefit := m.MaxBenefit(0, 1)
	return benefit
}

// CombinedUpperBoundFlow recomputes CombinedUpperBound through the
// retained time-expanded min-cost-flow reference. It exists for the
// differential suite and for recording the pre-refactor judge cost
// (BENCH_5.json); values are exactly equal to CombinedUpperBound.
func CombinedUpperBoundFlow(cfg switchsim.Config, seq packet.Sequence, crossbar bool) (int64, error) {
	if err := check(cfg, seq, crossbar); err != nil {
		return 0, err
	}
	slots := cfg.HorizonFor(seq)
	byOut := make([][]packet.Packet, cfg.Outputs)
	byIn := make([][]packet.Packet, cfg.Inputs)
	partition(seq, slots, byOut, byIn)
	outCap, inCap := relaxedCaps(cfg, crossbar)
	out := sumParallel(len(byOut), func(j int) int64 {
		return SingleQueueOPTFlow(byOut[j], slots, outCap, 1)
	})
	in := sumParallel(len(byIn), func(i int) int64 {
		return SingleQueueOPTFlow(byIn[i], slots, inCap, int64(cfg.Speedup))
	})
	return min(out, in), nil
}
