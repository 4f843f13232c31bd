package adversary

import (
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// AdaptiveAntiGreedy plays the adaptive adversary from the classical IQ
// lower-bound proofs against an ARBITRARY unit-value CIOQ policy, using
// the stepper API to observe the policy's queues after every slot.
//
// Strategy (per phase, on a 1-input x m-output switch with unit input
// buffers): burst one packet into every virtual output queue; then, while
// any queue is still occupied in the policy's switch, refill exactly one
// still-occupied queue per slot — the policy must reject it, while a
// schedule that served that queue first accepts it. After the queues
// drain, idle long enough for any alternative schedule to catch up, then
// start the next phase.
//
// Against deterministic greedy policies this regenerates the (2 - 1/m)
// family without knowing the policy's service order; against randomized
// policies the refills sometimes land in emptied queues, which is exactly
// why randomization helps — experiment E14 measures that gap.
//
// It returns the adversarial arrival sequence (for offline evaluation)
// and the policy's online benefit.
func AdaptiveAntiGreedy(cfg switchsim.Config, pol switchsim.CIOQPolicy, phases int) (packet.Sequence, int64, error) {
	if cfg.Inputs != 1 {
		return nil, 0, fmt.Errorf("adversary: adaptive anti-greedy needs a single input port, got %d", cfg.Inputs)
	}
	m := cfg.Outputs
	st, err := switchsim.NewCIOQStepper(cfg, pol)
	if err != nil {
		return nil, 0, err
	}
	// seq is built in (slot, ID) order with IDs 0, 1, 2, …, so it is already
	// normalized. It is sized once for the most a phase adds — m burst
	// packets and m-1 refills — and each slot's arrivals are handed to the
	// stepper as its tail, which the stepper copies.
	seq := make(packet.Sequence, 0, max(phases, 0)*(2*m-1))
	record := func(slot, out int) {
		seq = append(seq, packet.Packet{ID: int64(len(seq)), Arrival: slot, Out: out, Value: 1})
	}
	for ph := 0; ph < phases; ph++ {
		// Burst: one packet per queue.
		first, slot := len(seq), st.Slot()
		for j := 0; j < m; j++ {
			record(slot, j)
		}
		if err := st.StepSlot(seq[first:]); err != nil {
			return nil, 0, err
		}
		// Refill phase: while some queue is still occupied, target the
		// highest-index occupied queue (any occupied queue works; the
		// policy must drop the refill), read off the occupancy mask.
		for k := 0; k < m-1; k++ {
			target := st.Switch().VOQ.Row(0).Last()
			if target < 0 {
				break
			}
			record(st.Slot(), target)
			if err := st.StepSlot(seq[len(seq)-1:]); err != nil {
				return nil, 0, err
			}
		}
		// Idle slots: let any schedule drain before the next phase.
		// Slot-by-slot only while the policy still holds input-side
		// packets (its scheduler may still move them); the remaining
		// output-queue drain plus the m catch-up slots are one quiescent
		// stretch that StepIdle advances in closed form for IdleAdvancer
		// policies — and slot-by-slot, bit-identically, for the rest.
		for st.Switch().InputQueued() > 0 {
			if err := st.StepSlot(nil); err != nil {
				return nil, 0, err
			}
		}
		if err := st.StepIdle(st.Switch().OutputBacklog() + m); err != nil {
			return nil, 0, err
		}
	}
	res, err := st.Finish(2 * m * phases)
	if err != nil {
		return nil, 0, err
	}
	return seq, res.M.Benefit, nil
}
