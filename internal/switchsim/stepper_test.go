package switchsim

import (
	"testing"

	"qswitch/internal/packet"
)

func TestStepperMatchesBatchRun(t *testing.T) {
	cfg := baseCfg()
	rngSeq := seqOf(
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 1},
		packet.Packet{Arrival: 0, In: 1, Out: 1, Value: 1},
		packet.Packet{Arrival: 1, In: 0, Out: 1, Value: 1},
		packet.Packet{Arrival: 3, In: 1, Out: 0, Value: 1},
	)
	batch, err := RunCIOQ(cfg, &passPolicy{}, rngSeq)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewCIOQStepper(cfg, &passPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	by := rngSeq.BySlot(4)
	for slot := 0; slot < 4; slot++ {
		// Strip arrival/ID: the stepper assigns them.
		var arr []packet.Packet
		for _, p := range by[slot] {
			arr = append(arr, packet.Packet{In: p.In, Out: p.Out, Value: p.Value})
		}
		if err := st.StepSlot(arr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish(50)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Benefit != batch.M.Benefit || res.M.Sent != batch.M.Sent {
		t.Errorf("stepper benefit=%d sent=%d, batch benefit=%d sent=%d",
			res.M.Benefit, res.M.Sent, batch.M.Benefit, batch.M.Sent)
	}
}

func TestStepperRejectsBadArrivals(t *testing.T) {
	st, err := NewCIOQStepper(baseCfg(), &passPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot([]packet.Packet{{In: 9, Out: 0, Value: 1}}); err == nil {
		t.Error("out-of-range input accepted")
	}
	st2, _ := NewCIOQStepper(baseCfg(), &passPolicy{})
	if err := st2.StepSlot([]packet.Packet{{In: 0, Out: 0, Value: 0}}); err == nil {
		t.Error("zero value accepted")
	}
}

func TestStepperLifecycle(t *testing.T) {
	st, err := NewCIOQStepper(baseCfg(), &passPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Slot() != 0 {
		t.Errorf("fresh stepper at slot %d", st.Slot())
	}
	if err := st.StepSlot([]packet.Packet{{In: 0, Out: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if st.Slot() != 1 {
		t.Errorf("after one step at slot %d", st.Slot())
	}
	if b := st.Switch().M.Benefit; b != 1 {
		t.Errorf("benefit %d after first slot (packet should flow through)", b)
	}
	if _, err := st.Finish(10); err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot(nil); err == nil {
		t.Error("step after finish accepted")
	}
	if _, err := st.Finish(1); err == nil {
		t.Error("double finish accepted")
	}
}

func TestStepperRejectsRecordSeries(t *testing.T) {
	cfg := baseCfg()
	cfg.RecordSeries = true
	if _, err := NewCIOQStepper(cfg, &passPolicy{}); err == nil {
		t.Error("RecordSeries stepper accepted")
	}
}

func TestAcceptPreemptMinAdmission(t *testing.T) {
	cfg := baseCfg()
	cfg.InputBuf = 2
	pol := &passPolicy{
		admit: func(sw *CIOQ, p packet.Packet) AdmitAction { return AcceptPreemptMin },
		sched: func(*CIOQ, int, int) []Transfer { return nil },
	}
	cfg.Slots = 1
	seq := seqOf(
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 5},
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 2},
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 7}, // preempts the 2 (min), even under FIFO
	)
	res, err := RunCIOQ(cfg, pol, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.PreemptedInput != 1 || res.M.PreemptedInputValue != 2 {
		t.Errorf("preempted %d (value %d), want the value-2 minimum",
			res.M.PreemptedInput, res.M.PreemptedInputValue)
	}
}

func TestTransferPreemptMinIfFull(t *testing.T) {
	// Output queue (FIFO) holds 3 then 8; a transfer of 5 with
	// PreemptMinIfFull must drop the 3 (minimum), not the 8 (tail).
	cfg := Config{Inputs: 2, Outputs: 1, InputBuf: 2, OutputBuf: 2,
		Speedup: 3, Validate: true, Slots: 1}
	seq := seqOf(
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 3},
		packet.Packet{Arrival: 0, In: 0, Out: 0, Value: 8},
		packet.Packet{Arrival: 0, In: 1, Out: 0, Value: 5},
	)
	pol := &passPolicy{
		sched: func(sw *CIOQ, slot, cycle int) []Transfer {
			switch cycle {
			case 0, 1:
				if !sw.IQ[0][0].Empty() {
					return []Transfer{{In: 0, Out: 0}}
				}
			case 2:
				return []Transfer{{In: 1, Out: 0, PreemptMinIfFull: true}}
			}
			return nil
		},
	}
	res, err := RunCIOQ(cfg, pol, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.PreemptedOutputValue != 3 {
		t.Errorf("preempted value %d, want 3 (the minimum)", res.M.PreemptedOutputValue)
	}
	// FIFO transmission order: only slot 0 exists, sending the head (8);
	// the 5 remains queued when the truncated horizon ends.
	if res.M.Benefit != 8 {
		t.Errorf("benefit %d, want 8", res.M.Benefit)
	}
}
