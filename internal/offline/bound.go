package offline

import (
	"fmt"

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
//
// The pass starts with every queue in counter form and stays there while
// each packet due before the horizon has value 1, as every unit workload
// does. At the first due packet of another value it starts over from the
// first packet with every queue on its heap, so either way the bound, the
// validation error and the probe record are those of the heap sweep.
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
// horizon to its output's and/or its input's relaxed queue, in one pass
// (two when a valued packet ends the counter pass), then settles every
// queue at the horizon and returns the per-side sums. The probes see one
// solve per relaxed queue, flushed once per call.
func (s *UpperBoundSolver) sweep(cfg switchsim.Config, seq packet.Sequence, crossbar, outSide, inSide bool) (out, in int64, _ error) {
	if err := cfg.Check(crossbar); err != nil {
		return 0, 0, err
	}
	slots := cfg.HorizonFor(seq)
	outCap, inCap := relaxedCaps(cfg, crossbar)
	speedup := int64(cfg.Speedup)
	sides := s.reset(cfg, outSide, inSide)
	due, unit, err := s.feedUnit(cfg, seq, slots, outCap, inCap, speedup, outSide, inSide)
	if err == nil && !unit {
		s.reset(cfg, outSide, inSide)
		due, err = s.feed(cfg, seq, slots, outCap, inCap, speedup, outSide, inSide)
	}
	if err != nil {
		return 0, 0, err
	}
	var epochs int64
	for k := range s.out {
		if unit {
			out += s.out[k].settleUnit(slots, 1)
		} else {
			out += s.out[k].settle(slots, 1)
		}
		epochs += s.out[k].epochs
	}
	for k := range s.in {
		if unit {
			in += s.in[k].settleUnit(slots, speedup)
		} else {
			in += s.in[k].settle(slots, speedup)
		}
		epochs += s.in[k].epochs
	}
	judgeProbes.Load().RecordSolves(int64(len(s.out)+len(s.in)), due*sides, epochs)
	return out, in, nil
}

// feed runs sweep's pass over seq on the relaxed queues' heaps, returning
// the number of packets due before the horizon.
func (s *UpperBoundSolver) feed(cfg switchsim.Config, seq packet.Sequence, slots int, outCap, inCap, speedup int64,
	outSide, inSide bool) (due int64, _ error) {
	v := packet.NewValidator(cfg.Inputs, cfg.Outputs)
	for k := range seq {
		p := &seq[k]
		if !v.Accept(p) {
			return 0, fmt.Errorf("offline: bad sequence: %w", v.Reject(p))
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
	return due, nil
}

// feedUnit is feed on counter-form queues. It gives up (unit false) at
// the first packet due before the horizon whose value is not 1.
func (s *UpperBoundSolver) feedUnit(cfg switchsim.Config, seq packet.Sequence, slots int, outCap, inCap, speedup int64,
	outSide, inSide bool) (due int64, unit bool, _ error) {
	v := packet.NewValidator(cfg.Inputs, cfg.Outputs)
	for k := range seq {
		p := &seq[k]
		if !v.Accept(p) {
			return 0, true, fmt.Errorf("offline: bad sequence: %w", v.Reject(p))
		}
		if p.Arrival >= slots {
			continue
		}
		if p.Value != 1 {
			return 0, false, nil
		}
		due++
		if outSide {
			s.out[p.Out].arriveUnit(p.Arrival, outCap, 1)
		}
		if inSide {
			s.in[p.In].arriveUnit(p.Arrival, inCap, speedup)
		}
	}
	return due, true, nil
}

// reset empties one relaxed queue per port of each requested side, leaves
// the other side without queues, and returns the number of sides.
func (s *UpperBoundSolver) reset(cfg switchsim.Config, outSide, inSide bool) (sides int64) {
	s.out, s.in = s.out[:0], s.in[:0]
	if outSide {
		s.out = growQueues(s.out, cfg.Outputs)
		sides++
	}
	if inSide {
		s.in = growQueues(s.in, cfg.Inputs)
		sides++
	}
	return sides
}

// SingleQueueOPT computes the exact offline optimum of the bounded-buffer
// single-queue problem: packets arrive at given slots, the buffer holds at
// most bufCap packets at any time, one packet is transmitted per slot, and
// preemption (discarding buffered packets) is free. This is exactly the
// offline problem faced by one output port of an ideal OQ switch, solved
// by one forward sweep (see sweepQueue); the tests hold it exact-equal to a
// min-cost-flow reference on every instance.
func SingleQueueOPT(pkts []packet.Packet, slots int, bufCap int64) int64 {
	var q QueueOPTSolver
	return q.Solve(pkts, slots, bufCap, 1)
}
