package switchsim

import (
	"fmt"

	"qswitch/internal/packet"
)

// Config describes the switch geometry and the simulation horizon.
type Config struct {
	// Inputs and Outputs are the port counts (N and M). The paper focuses
	// on N = M but all results generalize to rectangular switches (§4).
	Inputs  int
	Outputs int

	// InputBuf is B(Q_ij), the capacity of each input-side virtual output
	// queue. OutputBuf is B(Q_j). CrossBuf is B(C_ij) and only used by the
	// buffered crossbar model.
	InputBuf  int
	OutputBuf int
	CrossBuf  int

	// Speedup ŝ is the number of scheduling cycles per time slot.
	Speedup int

	// Slots is the simulation horizon. Zero means "derive from the
	// sequence": last arrival + number of packets, enough to drain any
	// backlog completely.
	Slots int

	// Validate enables per-phase invariant checking (queue ordering and
	// capacities, conservation at the end). Simulations are ~2x slower
	// with it on; tests enable it everywhere.
	Validate bool

	// Dense opts OUT of the event-driven fast path and simulates every
	// slot one by one. By default (Dense == false) the engine jumps over
	// stretches it can resolve in closed form: fully idle gaps (empty
	// switch, next arrival known) and quiescent gaps (a backlog confined
	// to the output queues, which drains policy-independently — see the
	// package documentation). Jumps are taken only for policies that
	// implement IdleAdvancer (so slot-dependent policy state advances in
	// closed form); other policies are simulated densely regardless, so
	// metrics are bit-identical to a dense run in every case. Dense exists
	// as the differential-testing oracle and as an escape hatch for
	// profiling the per-slot path.
	Dense bool

	// RecordSeries collects the per-slot transmitted value (for figures).
	RecordSeries bool

	// RecordLatency collects a latency histogram (slots between arrival
	// and transmission).
	RecordLatency bool

	// StreamMetrics swaps the latency histogram for a constant-memory P²
	// quantile sketch (Metrics.LatencySketch), so RecordLatency stays
	// bounded on unbounded streaming runs. It changes only the latency
	// *representation* — sum, max and every other metric stay exact —
	// and it is honored identically by every front end (sequence, stream
	// and stepper), so differential runs still compare with DeepEqual.
	StreamMetrics bool
}

// Check validates the configuration, applying no defaults.
func (c Config) Check(needCross bool) error {
	if c.Inputs < 1 || c.Outputs < 1 {
		return fmt.Errorf("switchsim: need at least 1 input and 1 output, got %dx%d", c.Inputs, c.Outputs)
	}
	if c.InputBuf < 1 {
		return fmt.Errorf("switchsim: input buffer capacity %d < 1", c.InputBuf)
	}
	if c.OutputBuf < 1 {
		return fmt.Errorf("switchsim: output buffer capacity %d < 1", c.OutputBuf)
	}
	if needCross && c.CrossBuf < 1 {
		return fmt.Errorf("switchsim: crossbar buffer capacity %d < 1", c.CrossBuf)
	}
	if c.Speedup < 1 {
		return fmt.Errorf("switchsim: speedup %d < 1", c.Speedup)
	}
	if c.Slots < 0 {
		return fmt.Errorf("switchsim: negative slot count %d", c.Slots)
	}
	return nil
}

// HorizonFor resolves the number of slots to simulate for a sequence.
func (c Config) HorizonFor(seq packet.Sequence) int {
	if c.Slots > 0 {
		return c.Slots
	}
	return seq.Horizon()
}

// IdleAdvancer is the opt-in capability that lets the event-driven engine
// jump over runs of slots in which scheduling is provably a no-op: idle
// stretches (empty switch, no arrivals due) and quiescent stretches (a
// backlog confined to the output queues, draining one packet per output
// per slot with no eligible scheduling edges). A policy implementing it
// promises that IdleAdvance(k) leaves it in exactly the state it would
// reach after k further slots — each consisting of Config.Speedup
// scheduling cycles — during which the switch holds no input-side (and,
// on a crossbar, no crosspoint) packets and receives no arrivals, so none
// of its Schedule/subphase calls would return a transfer. Busy output
// queues may still be draining during those slots; a conforming policy's
// per-cycle state evolution must not depend on output-queue occupancy
// when it has no transfer to offer.
//
// Policies whose per-cycle state changes only when packets move (pointer
// updates on acceptance, value comparisons, matchings over occupied
// queues) implement it as a no-op; policies with free-running per-cycle
// state (rotating scan offsets) advance it in closed form. Policies that
// cannot express their idle evolution in closed form simply do not
// implement the interface and are simulated slot by slot even with
// Config.Dense unset.
type IdleAdvancer interface {
	IdleAdvance(idleSlots int)
}

// AdmitAction is a policy's decision for an arriving packet.
type AdmitAction int

const (
	// Reject discards the arriving packet.
	Reject AdmitAction = iota
	// Accept enqueues the packet; it is a policy error if the target
	// queue is full.
	Accept
	// AcceptPreempt enqueues the packet, preempting the queue's tail
	// packet if the queue is full and the tail has strictly lower
	// priority; otherwise the arrival is rejected. This is the paper's
	// preemptive admission rule.
	AcceptPreempt
	// AcceptPreemptMin enqueues the packet, preempting the queue's
	// least-valuable packet (wherever it sits) if the queue is full and
	// strictly worse. Under ByValue queues it coincides with
	// AcceptPreempt; under FIFO queues it implements the preemption rule
	// of the FIFO buffer-management literature (packets depart in
	// arrival order, but any buffered packet may be dropped).
	AcceptPreemptMin
)

// Transfer instructs the engine to move the head packet of a source queue
// to its destination queue during a scheduling cycle (or subphase).
// For CIOQ: Q_{In,Out} -> Q_Out. For the crossbar input subphase:
// Q_{In,Out} -> C_{In,Out}; output subphase: C_{In,Out} -> Q_Out.
type Transfer struct {
	In, Out int
	// PreemptIfFull allows the transfer to preempt the destination
	// queue's tail if the destination is full and the moved packet has
	// strictly higher priority. Without it a transfer into a full queue
	// is a policy error.
	PreemptIfFull bool
	// PreemptMinIfFull is the FIFO-model variant: preempt the
	// destination queue's least-valuable packet instead of its tail.
	PreemptMinIfFull bool
}
