package switchsim

import (
	"fmt"

	"qswitch/internal/packet"
)

// CIOQStepper drives a CIOQ simulation one slot at a time, with arrivals
// supplied interactively. It enables adaptive adversaries — inputs chosen
// after observing the policy's state — and incremental/streaming use of
// the simulator (e.g. feeding live traces).
//
// The caller supplies each slot's arrivals via StepSlot; packets must
// carry strictly increasing IDs and the current slot's index as Arrival.
// Finish drains the backlog and returns the final result.
type CIOQStepper struct {
	e      cioqEngine
	slot   int
	nextID int64
	done   bool
}

// NewCIOQStepper creates a stepper for the policy. Config.Slots is
// ignored — the horizon is determined by how often StepSlot is called
// (plus draining in Finish).
func NewCIOQStepper(cfg Config, pol CIOQPolicy) (*CIOQStepper, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	if cfg.RecordSeries {
		return nil, fmt.Errorf("switchsim: stepper does not support RecordSeries (unknown horizon)")
	}
	return &CIOQStepper{e: newCIOQEngine(cfg, pol)}, nil
}

// Slot returns the index of the next slot to be simulated.
func (st *CIOQStepper) Slot() int { return st.slot }

// Switch exposes the live switch state (read-only use expected); adaptive
// adversaries inspect queue occupancy through it.
func (st *CIOQStepper) Switch() *CIOQ { return st.e.sw }

// StepSlot runs one full time slot: the given arrivals (ports and values
// only need to be set; Arrival and ID are assigned by the stepper), the
// speedup's scheduling cycles, and the transmission phase.
func (st *CIOQStepper) StepSlot(arrivals []packet.Packet) error {
	if st.done {
		return fmt.Errorf("switchsim: stepper already finished")
	}
	cfg := &st.e.sw.Cfg
	for _, p := range arrivals {
		p.Arrival = st.slot
		p.ID = st.nextID
		st.nextID++
		if p.In < 0 || p.In >= cfg.Inputs || p.Out < 0 || p.Out >= cfg.Outputs {
			return fmt.Errorf("switchsim: stepper arrival %v out of range", p)
		}
		if p.Value < 1 {
			return fmt.Errorf("switchsim: stepper arrival %v has value < 1", p)
		}
		if err := st.e.sw.admit(p, st.e.pol.Admit(st.e.sw, p)); err != nil {
			return err
		}
	}
	if err := st.e.step(st.slot); err != nil {
		return err
	}
	st.slot++
	return nil
}

// StepIdle advances the simulation across idleSlots slots with no
// arrivals — the stepper-side event-driven fast path, used by adaptive
// adversaries and trace replayers whose arrival streams have long quiet
// gaps. Slots are simulated one by one while input-side packets remain
// (transfers still happen); as soon as the switch is quiescent — any
// remaining backlog confined to the output queues — a policy implementing
// IdleAdvancer has the whole remaining stretch advanced in closed form
// (the drain is policy-independent; see (*CIOQ).quiesce). Config.Dense
// disables the jump and steps every slot. Metrics are bit-identical to
// per-slot stepping either way.
func (st *CIOQStepper) StepIdle(idleSlots int) error {
	if st.done {
		return fmt.Errorf("switchsim: stepper already finished")
	}
	for ; idleSlots > 0; idleSlots-- {
		if st.e.quiescent() {
			// st.slot is the next slot to simulate, so the jump starts
			// after the slot before it.
			if err := st.e.jump(st.slot-1, idleSlots); err != nil {
				return err
			}
			st.slot += idleSlots
			return nil
		}
		if err := st.StepSlot(nil); err != nil {
			return err
		}
	}
	return nil
}

// Finish runs empty slots until the switch drains (or maxDrain slots have
// passed) and returns the final result. Draining uses the same quiescent
// fast path as StepIdle once the input side is empty. The stepper cannot
// be used afterwards.
func (st *CIOQStepper) Finish(maxDrain int) (*Result, error) {
	if st.done {
		return nil, fmt.Errorf("switchsim: stepper already finished")
	}
	sw := st.e.sw
	for d := 0; d < maxDrain && sw.QueuedPackets() > 0; {
		k := 1
		if st.e.quiescent() {
			k = min(sw.OutputBacklog(), maxDrain-d)
		}
		if err := st.StepIdle(k); err != nil {
			return nil, err
		}
		d += k
	}
	st.done = true
	return st.e.result(st.slot)
}
