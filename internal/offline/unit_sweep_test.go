package offline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// UpperBoundSolver runs its relaxed queues as counters while every packet
// due before the horizon has value 1, and restarts on the heaps at the
// first one that does not. These tests hold the counter pass to the
// epoch-tree and flow references and to the heap pass itself: the same
// bounds, the same validation errors and the same probe record.

// judgeProbeDelta returns the solves, packets and epochs that run records.
func judgeProbeDelta(run func()) [3]int64 {
	p := obs.NewJudgeProbes(obs.NewRegistry())
	SetProbes(p)
	defer SetProbes(nil)
	run()
	return [3]int64{p.Solves.Value(), p.Packets.Value(), p.Epochs.Value()}
}

// scaled returns seq with every value multiplied by k. Equal values leave
// the heaps nothing to choose between, so a unit sequence scaled by 2
// takes the heap pass and must come out at exactly twice its bound.
func scaled(seq packet.Sequence, k int64) packet.Sequence {
	out := slices.Clone(seq)
	for i := range out {
		out[i].Value *= k
	}
	return out
}

// queueForms counts the relaxed queues left holding packets in counter
// form and in heap form.
func queueForms(s *UpperBoundSolver) (counted, heaped int) {
	for _, qs := range [][]sweepQueue{s.out, s.in} {
		for k := range qs {
			if qs[k].count > 0 {
				counted++
			}
			if len(qs[k].buf) > 0 {
				heaped++
			}
		}
	}
	return counted, heaped
}

// checkSweep judges c on the reused solver s and requires the combined
// bound, both single sides and the probe record to equal the epoch-tree
// reference, and the combined bound to equal the flow reference. It
// returns the bound and its probe record.
func checkSweep(t *testing.T, s *UpperBoundSolver, ref *refQueueOPTSolver, c diffCase) (int64, [3]int64) {
	t.Helper()
	var refOut, refIn int64
	refProbes := judgeProbeDelta(func() { refOut, refIn = refCombinedUpperBound(ref, c) })
	flow, err := CombinedUpperBoundFlow(c.cfg, c.seq, c.crossbar)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	probes := judgeProbeDelta(func() { got, err = s.CombinedUpperBound(c.cfg, c.seq, c.crossbar) })
	if err != nil || got != flow || got != min(refOut, refIn) || probes != refProbes {
		t.Fatalf("%s: combined %d (%v) probes %v; flow %d, epoch trees %d probes %v",
			c.name, got, err, probes, flow, min(refOut, refIn), refProbes)
	}
	if out, err := s.OQUpperBound(c.cfg, c.seq, c.crossbar); err != nil || out != refOut {
		t.Fatalf("%s: out side %d (%v), epoch trees %d", c.name, out, err, refOut)
	}
	if in, err := s.InputUpperBound(c.cfg, c.seq, c.crossbar); err != nil || in != refIn {
		t.Fatalf("%s: in side %d (%v), epoch trees %d", c.name, in, err, refIn)
	}
	return got, probes
}

// checkUnitSweep is checkSweep on a unit sequence, plus the heap pass on c
// scaled by 2: it must return twice the bound with the same probe record.
func checkUnitSweep(t *testing.T, s *UpperBoundSolver, ref *refQueueOPTSolver, c diffCase) {
	t.Helper()
	got, probes := checkSweep(t, s, ref, c)
	var heap int64
	var err error
	heapProbes := judgeProbeDelta(func() { heap, err = s.CombinedUpperBound(c.cfg, scaled(c.seq, 2), c.crossbar) })
	if err != nil || heap != 2*got || heapProbes != probes {
		t.Fatalf("%s: heap pass on doubled values %d (%v) probes %v; counter pass %d probes %v",
			c.name, heap, err, heapProbes, got, probes)
	}
}

// TestUnitSweepMatchesReferences runs every unit-valued generator of the
// differential family on every differential geometry, under CIOQ and
// crossbar capacities.
func TestUnitSweepMatchesReferences(t *testing.T) {
	var s UpperBoundSolver
	var ref refQueueOPTSolver
	gens := map[string]bool{}
	for gi, gen := range diffGenerators() {
		for ci, cfg := range diffConfigs() {
			for seed := int64(0); seed < 3; seed++ {
				seq := gen.Generate(rand.New(rand.NewSource(1000*int64(gi)+seed)), cfg.Inputs, cfg.Outputs, cfg.Slots)
				if len(seq) == 0 || !seq.IsUnit() {
					continue
				}
				gens[gen.Name()] = true
				for _, crossbar := range []bool{false, true} {
					checkUnitSweep(t, &s, &ref, diffCase{
						name: fmt.Sprintf("gen %s cfg %d seed %d crossbar %v", gen.Name(), ci, seed, crossbar),
						cfg:  cfg, seq: seq, crossbar: crossbar,
					})
				}
			}
		}
	}
	if len(gens) < 4 {
		t.Fatalf("only %d unit generators in the family: %v", len(gens), gens)
	}
}

// TestUnitSweepRestartAndHorizonEdges pins the restart rule at its edges.
// A valued packet that is the last one due before the horizon sends the
// whole sweep back to the heaps; one at or past the horizon is never fed,
// so the counters finish the job.
func TestUnitSweepRestartAndHorizonEdges(t *testing.T) {
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 30}
	// Generated past the horizon so that packets lie beyond it; overloaded
	// so that the relaxed queues still hold packets at the horizon.
	seq := packet.Bernoulli{Load: 1.4}.Generate(rand.New(rand.NewSource(40)), 4, 4, cfg.Slots+6)
	last, past := -1, -1
	for k, p := range seq {
		if p.Arrival < cfg.Slots {
			last = k
		} else if past < 0 {
			past = k
		}
	}
	if last < 0 || past < 0 {
		t.Fatalf("the sequence has no packet on one side of the horizon (last due %d, first past %d)", last, past)
	}
	var s UpperBoundSolver
	var ref refQueueOPTSolver
	for _, crossbar := range []bool{false, true} {
		restart := slices.Clone(seq)
		restart[last].Value = 5
		c := diffCase{name: fmt.Sprintf("valued last due packet, crossbar %v", crossbar), cfg: cfg, seq: restart, crossbar: crossbar}
		checkSweep(t, &s, &ref, c)
		if _, err := s.CombinedUpperBound(cfg, restart, crossbar); err != nil {
			t.Fatal(err)
		}
		if counted, heaped := queueForms(&s); counted != 0 || heaped == 0 {
			t.Errorf("%s: %d queues left as counters and %d as heaps, want the heap pass", c.name, counted, heaped)
		}

		beyond := slices.Clone(seq)
		beyond[past].Value = 5
		beyond[len(beyond)-1].Value = 7
		checkUnitSweep(t, &s, &ref, diffCase{name: fmt.Sprintf("valued packets past the horizon, crossbar %v", crossbar),
			cfg: cfg, seq: beyond, crossbar: crossbar})
		if _, err := s.CombinedUpperBound(cfg, beyond, crossbar); err != nil {
			t.Fatal(err)
		}
		if counted, heaped := queueForms(&s); counted == 0 || heaped != 0 {
			t.Errorf("past the horizon, crossbar %v: %d queues left as counters and %d as heaps, want the counter pass",
				crossbar, counted, heaped)
		}
	}
}

// TestUnitSweepValidationErrors requires the counter pass to refuse a bad
// sequence with the heap pass's error, whether the defect comes before or
// after the first valued packet, and to record no probe either way.
func TestUnitSweepValidationErrors(t *testing.T) {
	cfg := switchsim.Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 20}
	base := packet.Bernoulli{Load: 1}.Generate(rand.New(rand.NewSource(41)), 3, 3, cfg.Slots)
	if len(base) < 10 {
		t.Fatalf("only %d packets", len(base))
	}
	defects := map[string]func(packet.Sequence){
		"port":     func(s packet.Sequence) { s[5].Out = 3 },
		"zero":     func(s packet.Sequence) { s[5].Value = 0 },
		"order":    func(s packet.Sequence) { s[5].Arrival = s[4].Arrival - 1 },
		"id":       func(s packet.Sequence) { s[5].ID = s[4].ID },
		"valued":   func(s packet.Sequence) { s[3].Value = 9; s[5].In = -1 },
		"afterbad": func(s packet.Sequence) { s[5].In = -1; s[7].Value = 9 },
	}
	var s UpperBoundSolver
	for name, defect := range defects {
		seq := slices.Clone(base)
		defect(seq)
		want := check(cfg, seq, false)
		if want == nil {
			t.Fatalf("%s: the defect passes validation", name)
		}
		for _, judged := range []packet.Sequence{seq, scaled(seq, 2)} {
			var err error
			probes := judgeProbeDelta(func() { _, err = s.CombinedUpperBound(cfg, judged, false) })
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: error %v, want %v", name, err, want)
			}
			if probes != [3]int64{} {
				t.Errorf("%s: a refused sequence recorded %v", name, probes)
			}
		}
	}
}
