package switchsim

import (
	"fmt"

	"qswitch/internal/packet"
)

// CrossbarStepper drives a buffered-crossbar simulation one slot at a
// time, mirroring CIOQStepper: arrivals are supplied interactively and
// adaptive adversaries may inspect the live switch between slots.
type CrossbarStepper struct {
	e      crossbarEngine
	slot   int
	nextID int64
	done   bool
}

// NewCrossbarStepper creates a stepper for the policy.
func NewCrossbarStepper(cfg Config, pol CrossbarPolicy) (*CrossbarStepper, error) {
	if err := cfg.Check(true); err != nil {
		return nil, err
	}
	if cfg.RecordSeries {
		return nil, fmt.Errorf("switchsim: stepper does not support RecordSeries (unknown horizon)")
	}
	return &CrossbarStepper{e: newCrossbarEngine(cfg, pol)}, nil
}

// Slot returns the index of the next slot to be simulated.
func (st *CrossbarStepper) Slot() int { return st.slot }

// Switch exposes the live switch state for adaptive callers.
func (st *CrossbarStepper) Switch() *Crossbar { return st.e.sw }

// Benefit returns the value transmitted so far.
func (st *CrossbarStepper) Benefit() int64 { return st.e.sw.M.Benefit }

// StepSlot runs one full time slot with the given arrivals (ports and
// values; Arrival and ID are assigned by the stepper).
func (st *CrossbarStepper) StepSlot(arrivals []packet.Packet) error {
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
// arrivals: per-slot while input or crosspoint packets remain, then one
// closed-form jump for the rest once the switch is quiescent — any
// remaining backlog confined to the output queues (IdleAdvancer policies
// only); see CIOQStepper.StepIdle.
func (st *CrossbarStepper) StepIdle(idleSlots int) error {
	if st.done {
		return fmt.Errorf("switchsim: stepper already finished")
	}
	for ; idleSlots > 0; idleSlots-- {
		if st.e.quiescent() {
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

// Finish drains the backlog (bounded by maxDrain slots) and returns the
// final result, using the quiescent fast path once only output queues
// hold packets.
func (st *CrossbarStepper) Finish(maxDrain int) (*Result, error) {
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
