package switchsim

import (
	"testing"

	"qswitch/internal/packet"
)

func TestCrossbarStepperMatchesBatchRun(t *testing.T) {
	cfg := baseCfg()
	seq := seqOf(
		packet.Packet{Arrival: 0, In: 0, Out: 1, Value: 1},
		packet.Packet{Arrival: 0, In: 1, Out: 0, Value: 1},
		packet.Packet{Arrival: 2, In: 0, Out: 0, Value: 1},
	)
	batch, err := RunCrossbar(cfg, &xbarPolicy{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewCrossbarStepper(cfg, &xbarPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	by := seq.BySlot(3)
	for slot := 0; slot < 3; slot++ {
		var arr []packet.Packet
		for _, p := range by[slot] {
			arr = append(arr, packet.Packet{In: p.In, Out: p.Out, Value: p.Value})
		}
		if err := st.StepSlot(arr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Benefit != batch.M.Benefit || res.M.Sent != batch.M.Sent {
		t.Errorf("stepper sent=%d benefit=%d, batch sent=%d benefit=%d",
			res.M.Sent, res.M.Benefit, batch.M.Sent, batch.M.Benefit)
	}
}

func TestCrossbarStepperLifecycle(t *testing.T) {
	st, err := NewCrossbarStepper(baseCfg(), &xbarPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot([]packet.Packet{{In: 0, Out: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if st.Slot() != 1 || st.Switch().M.Benefit != 1 {
		t.Errorf("slot=%d benefit=%d after one step", st.Slot(), st.Switch().M.Benefit)
	}
	if st.Switch() == nil {
		t.Error("no switch exposed")
	}
	if _, err := st.Finish(5); err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot(nil); err == nil {
		t.Error("step after finish accepted")
	}
}

func TestCrossbarStepperValidation(t *testing.T) {
	st, err := NewCrossbarStepper(baseCfg(), &xbarPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StepSlot([]packet.Packet{{In: 5, Out: 0, Value: 1}}); err == nil {
		t.Error("out-of-range arrival accepted")
	}
	cfg := baseCfg()
	cfg.RecordSeries = true
	if _, err := NewCrossbarStepper(cfg, &xbarPolicy{}); err == nil {
		t.Error("RecordSeries stepper accepted")
	}
}
