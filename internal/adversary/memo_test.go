package adversary

import (
	"reflect"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// counted wraps eval so that every call adds one to *calls.
func counted(eval Ratio, calls *int) Ratio {
	return func(seq packet.Sequence) (float64, bool) {
		*calls++
		return eval(seq)
	}
}

// judged is the hunt fitness function without a memo, as shard.HuntEval
// builds it: OPT/ALG under one exact judge, with invalid or failing
// sequences discarded.
func judged(cfg switchsim.Config, alg ratio.Alg, judge ratio.JudgeFactory) Ratio {
	j := judge()
	return func(seq packet.Sequence) (float64, bool) {
		if seq.Validate(cfg.Inputs, cfg.Outputs) != nil {
			return 0, false
		}
		r, ok, err := ratio.Single(cfg, alg, j, seq)
		return r, ok && err == nil
	}
}

// TestMemoLeavesHuntUnchanged: a hunt through Memo takes every decision a
// hunt through the bare evaluator takes — the same result, witness and
// counts, from as many evaluator calls — while judging strictly fewer
// sequences. The geometry and search space are the benchmark's hunt cells.
func TestMemoLeavesHuntUnchanged(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 4, CrossBuf: 1, Speedup: 2}
	for _, c := range []struct {
		name       string
		alg        ratio.Alg
		judge      ratio.JudgeFactory
		iterations int
	}{
		{"gm", ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }), ratio.ExactUnitCIOQ, 60},
		{"cgu", ratio.CrossbarAlg(func() switchsim.CrossbarPolicy { return &core.CGU{} }), ratio.ExactUnitCrossbar, 30},
	} {
		opts := SearchOptions{Inputs: 2, Outputs: 2, MaxSlots: 600, MaxPackets: 24, MaxValue: 1,
			Iterations: c.iterations, Seed: 1, Restarts: 4}
		var bare, outer, inner int
		want := HuntRange(opts, counted(judged(cfg, c.alg, c.judge), &bare), 0, opts.Restarts)
		got := HuntRange(opts, counted(Memo(counted(judged(cfg, c.alg, c.judge), &inner)), &outer), 0, opts.Restarts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hunt through Memo differs:\n got  %+v\n want %+v", c.name, got, want)
		}
		if outer != bare {
			t.Errorf("%s: hunt through Memo made %d evaluator calls, bare hunt %d", c.name, outer, bare)
		}
		if inner >= outer {
			t.Errorf("%s: Memo judged %d of %d candidates, want strictly fewer", c.name, inner, outer)
		}
	}
}

// TestMemoIsExact: a repeated sequence is answered without calling eval,
// and one that differs from a judged sequence in a single field of one
// packet, or in its length, is judged afresh.
func TestMemoIsExact(t *testing.T) {
	base := packet.Sequence{
		{ID: 0, Arrival: 0, In: 0, Out: 1, Value: 1},
		{ID: 1, Arrival: 2, In: 1, Out: 0, Value: 3},
	}
	var calls int
	eval := Memo(counted(huntEval, &calls))
	wantR, wantOK := huntEval(base)
	for i := 0; i < 2; i++ {
		if r, ok := eval(base.Clone()); r != wantR || ok != wantOK {
			t.Fatalf("call %d: Memo answered (%v, %v), eval answers (%v, %v)", i, r, ok, wantR, wantOK)
		}
	}
	if calls != 1 {
		t.Fatalf("a repeated sequence was judged %d times, want once", calls)
	}
	for _, c := range []struct {
		field string
		edit  func(p *packet.Packet)
	}{
		{"In", func(p *packet.Packet) { p.In = 0 }},
		{"Out", func(p *packet.Packet) { p.Out = 1 }},
		{"Value", func(p *packet.Packet) { p.Value = 2 }},
		{"Arrival", func(p *packet.Packet) { p.Arrival = 3 }},
		{"ID", func(p *packet.Packet) { p.ID = 2 }},
	} {
		seq := base.Clone()
		c.edit(&seq[1])
		before := calls
		eval(seq)
		if calls != before+1 {
			t.Errorf("a sequence differing only in one packet's %s was answered from the memo", c.field)
		}
	}
	before := calls
	eval(base[:1])
	if calls != before+1 {
		t.Error("a prefix of a judged sequence was answered from the memo")
	}
}

// TestMemoInvalidStaysInvalid: a sequence the evaluator rejects is rejected
// again, as (0, false), when it comes back.
func TestMemoInvalidStaysInvalid(t *testing.T) {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 1}
	eval := Memo(judged(cfg, ratio.CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }), ratio.ExactUnitCIOQ))
	bad := packet.Sequence{{ID: 0, Arrival: 0, In: 2, Out: 0, Value: 1}} // input 2 of 2
	for i := 0; i < 2; i++ {
		if r, ok := eval(bad); r != 0 || ok {
			t.Errorf("call %d: invalid sequence answered (%v, %v), want (0, false)", i, r, ok)
		}
	}
}

// TestMemoClearsWhenFull: the table holds at most memoCap answers. Filling
// it past that clears it, and a sequence judged before the clear is judged
// again.
func TestMemoClearsWhenFull(t *testing.T) {
	var calls int
	eval := Memo(counted(huntEval, &calls))
	one := func(k int) packet.Sequence { return packet.Sequence{{ID: int64(k), Value: 1}} }
	for k := 0; k <= memoCap; k++ {
		eval(one(k))
	}
	eval(one(memoCap))
	if calls != memoCap+1 {
		t.Fatalf("%d calls after %d distinct sequences and a repeat of the last, want %d", calls, memoCap+1, memoCap+1)
	}
	eval(one(0))
	if calls != memoCap+2 {
		t.Error("a sequence judged before the table filled was still answered from it")
	}
}
