package qswitch

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/ratio"
)

func testCfg() Config {
	return Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 2, Speedup: 1, Validate: true}
}

func TestAllNamedCIOQPoliciesRun(t *testing.T) {
	cfg := testCfg()
	seq := GenerateTraffic(UniformTraffic(1.2), cfg, 20, 1)
	for _, name := range CIOQPolicyNames() {
		t.Run(name, func(t *testing.T) {
			res, err := SimulateCIOQ(cfg, name, seq)
			if err != nil {
				t.Fatal(err)
			}
			if res.M.Sent == 0 {
				t.Error("no packets delivered")
			}
			pol, _ := NewCIOQPolicy(name)
			if pol.Name() == "" {
				t.Error("empty policy name")
			}
		})
	}
}

func TestAllNamedCrossbarPoliciesRun(t *testing.T) {
	cfg := testCfg()
	seq := GenerateTraffic(UniformTraffic(1.2), cfg, 20, 2)
	for _, name := range CrossbarPolicyNames() {
		t.Run(name, func(t *testing.T) {
			res, err := SimulateCrossbar(cfg, name, seq)
			if err != nil {
				t.Fatal(err)
			}
			if res.M.Sent == 0 {
				t.Error("no packets delivered")
			}
		})
	}
}

func TestUnknownPolicyNamesError(t *testing.T) {
	if _, err := NewCIOQPolicy("bogus"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("err = %v", err)
	}
	if _, err := NewCrossbarPolicy("bogus"); err == nil {
		t.Error("bogus crossbar policy accepted")
	}
	if _, err := SimulateCIOQ(testCfg(), 42, nil); err == nil {
		t.Error("non-policy value accepted")
	}
	if _, err := SimulateCrossbar(testCfg(), 42, nil); err == nil {
		t.Error("non-policy value accepted")
	}
}

func TestPolicyValuesAcceptedDirectly(t *testing.T) {
	cfg := testCfg()
	seq := GenerateTraffic(WeightedTraffic(1.0, nil), cfg, 10, 3)
	if _, err := SimulateCIOQ(cfg, NewPG(2.0), seq); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateCrossbar(cfg, NewCPG(2.0, 3.0), seq); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateOQDominatesCIOQOnline(t *testing.T) {
	// The ideal OQ switch with the same output buffers is an online
	// upper-bound reference for fabric-constrained switches using the
	// same greedy admission. (Not a theorem for every instance — OQ has
	// no input buffers to stash packets in — but on uniform random load
	// it holds comfortably.)
	cfg := testCfg()
	cfg.OutputBuf = 8
	seq := GenerateTraffic(UniformTraffic(1.0), cfg, 50, 4)
	oq, err := SimulateOQ(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := SimulateCIOQ(cfg, "gm", seq)
	if err != nil {
		t.Fatal(err)
	}
	if oq.M.Benefit < gm.M.Benefit {
		t.Errorf("OQ %d below GM %d on uniform load", oq.M.Benefit, gm.M.Benefit)
	}
}

func TestOfflineUpperBoundDominatesEveryPolicy(t *testing.T) {
	cfg := testCfg()
	seq := GenerateTraffic(WeightedTraffic(1.5, nil), cfg, 15, 5)
	ub, err := OfflineUpperBound(cfg, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CIOQPolicyNames() {
		res, err := SimulateCIOQ(cfg, name, seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Benefit > ub {
			t.Errorf("%s benefit %d exceeds offline upper bound %d", name, res.M.Benefit, ub)
		}
	}
	ubX, err := OfflineUpperBound(cfg, seq, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CrossbarPolicyNames() {
		res, err := SimulateCrossbar(cfg, name, seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Benefit > ubX {
			t.Errorf("%s benefit %d exceeds offline upper bound %d", name, res.M.Benefit, ubX)
		}
	}
}

func TestExactOptimumDispatch(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 2, Speedup: 1}
	unit := Sequence{{ID: 0, Arrival: 0, In: 0, Out: 0, Value: 1}}
	weighted := Sequence{{ID: 0, Arrival: 0, In: 0, Out: 0, Value: 5}}
	for _, crossbar := range []bool{false, true} {
		if got, err := ExactOptimum(cfg, unit, crossbar); err != nil || got != 1 {
			t.Errorf("unit crossbar=%v: got %d err %v", crossbar, got, err)
		}
		if got, err := ExactOptimum(cfg, weighted, crossbar); err != nil || got != 5 {
			t.Errorf("weighted crossbar=%v: got %d err %v", crossbar, got, err)
		}
	}
}

func TestMeasureRatioCIOQEndToEnd(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2,
		CrossBuf: 1, Speedup: 1, Validate: true, Slots: 5}
	est, err := MeasureRatioCIOQ(cfg, "gm", UniformTraffic(1.5), true, 11, 10)
	if err != nil {
		t.Fatal(err)
	}
	if est.Runs == 0 {
		t.Fatal("no runs measured")
	}
	if est.Max > 3.0+1e-9 || est.Max < 1.0-1e-9 {
		t.Errorf("GM exact ratio %.4f outside [1, 3]", est.Max)
	}
	if _, err := MeasureRatioCIOQ(cfg, "bogus", UniformTraffic(1), true, 1, 1); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestMeasureRatioCrossbarEndToEnd(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1,
		CrossBuf: 1, Speedup: 1, Validate: true, Slots: 4}
	est, err := MeasureRatioCrossbar(cfg, "cgu", UniformTraffic(1.5), true, 13, 8)
	if err != nil {
		t.Fatal(err)
	}
	if est.Runs == 0 {
		t.Fatal("no runs measured")
	}
	if est.Max > 3.0+1e-9 {
		t.Errorf("CGU exact ratio %.4f exceeds 3", est.Max)
	}
	if _, err := MeasureRatioCrossbar(cfg, "bogus", UniformTraffic(1), true, 1, 1); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestMeasureRatioEntryPointsAgree: every facade ratio entry point gives
// the same estimate for the same seeds, on an exact-judged and an
// upper-bound-judged shape, and an unknown policy name fails each of them
// with its resolver's error text.
func TestMeasureRatioEntryPointsAgree(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   Config
		gen   Generator
		exact bool
	}{
		{"2x2-exact", Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Validate: true, Slots: 5}, UniformTraffic(1.5), true},
		{"4x4-upper-bound", Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 2, Speedup: 1, Validate: true, Slots: 20}, UniformTraffic(1.2), false},
	}
	const seed, runs = 11, 12
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			want, err := MeasureRatioCIOQ(sh.cfg, "gm", sh.gen, sh.exact, seed, runs)
			if err != nil {
				t.Fatal(err)
			}
			if want.Runs == 0 {
				t.Fatal("no runs measured")
			}
			check := func(label string, got RatioEstimate, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", label, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s differs from MeasureRatioCIOQ:\n got %+v\nwant %+v", label, got, want)
				}
			}
			for _, workers := range []int{1, 3} {
				got, err := MeasureRatioCIOQParallel(sh.cfg, "gm", sh.gen, sh.exact, seed, runs, workers)
				check(fmt.Sprintf("MeasureRatioCIOQParallel(workers=%d)", workers), got, err)
			}
			for _, chunk := range []int{1, 5} {
				got, _, err := MeasureRatioCIOQSequential(sh.cfg, "gm", sh.gen, sh.exact, seed, PrecisionTarget{}, chunk, runs)
				check(fmt.Sprintf("MeasureRatioCIOQSequential(chunk=%d)", chunk), got, err)
			}
			pe, err := CompareRatioCIOQPaired(sh.cfg, []string{"gm"}, sh.gen, sh.exact, seed, PrecisionTarget{}, runs)
			if err == nil && len(pe.Marginals) != 1 {
				t.Fatalf("CompareRatioCIOQPaired: %d marginals, want 1", len(pe.Marginals))
			}
			if err != nil {
				t.Errorf("CompareRatioCIOQPaired: %v", err)
			} else {
				check("CompareRatioCIOQPaired", pe.Marginals[0], nil)
			}

			judge := ratio.JudgeFactory(ratio.UpperBoundCrossbar)
			if sh.exact {
				judge = ratio.ExactUnitCrossbar // unit traffic: what ExactOptimum dispatches to
			}
			wantX, err := ratio.Run(context.Background(), sh.cfg,
				ratio.CrossbarAlg(func() CrossbarPolicy { return &core.CGU{} }), judge, sh.gen, seed, runs)
			if err != nil {
				t.Fatal(err)
			}
			gotX, err := MeasureRatioCrossbar(sh.cfg, "cgu", sh.gen, sh.exact, seed, runs)
			if err != nil || !reflect.DeepEqual(gotX, wantX) {
				t.Errorf("MeasureRatioCrossbar = %+v, %v; want ratio.Run's %+v", gotX, err, wantX)
			}
		})
	}

	const bad = "no-such-policy"
	cfg, gen := shapes[0].cfg, shapes[0].gen
	_, cioqErr := NewCIOQPolicy(bad)
	_, xbarErr := NewCrossbarPolicy(bad)
	errs := map[string]error{}
	_, errs["MeasureRatioCIOQ"] = MeasureRatioCIOQ(cfg, bad, gen, true, seed, runs)
	_, errs["MeasureRatioCIOQParallel"] = MeasureRatioCIOQParallel(cfg, bad, gen, true, seed, runs, 2)
	_, _, errs["MeasureRatioCIOQSequential"] = MeasureRatioCIOQSequential(cfg, bad, gen, true, seed, PrecisionTarget{}, 4, runs)
	_, errs["CompareRatioCIOQPaired"] = CompareRatioCIOQPaired(cfg, []string{"gm", bad}, gen, true, seed, PrecisionTarget{}, runs)
	for name, err := range errs {
		if err == nil || err.Error() != cioqErr.Error() {
			t.Errorf("%s(%q) error = %v, want %q", name, bad, err, cioqErr)
		}
	}
	if _, err := MeasureRatioCrossbar(cfg, bad, gen, true, seed, runs); err == nil || err.Error() != xbarErr.Error() {
		t.Errorf("MeasureRatioCrossbar(%q) error = %v, want %q", bad, err, xbarErr)
	}
}

func TestParameterAccessors(t *testing.T) {
	if DefaultBetaPG() <= 2.41 || DefaultBetaPG() >= 2.42 {
		t.Error("beta PG wrong")
	}
	if DefaultBetaCPG() <= 1.8 || DefaultBetaCPG() >= 1.9 {
		t.Errorf("beta CPG = %v", DefaultBetaCPG())
	}
	if DefaultAlphaCPG() <= 2.7 || DefaultAlphaCPG() >= 2.95 {
		t.Errorf("alpha CPG = %v", DefaultAlphaCPG())
	}
}

func TestTrafficHelpers(t *testing.T) {
	cfg := testCfg()
	for _, gen := range []Generator{
		UniformTraffic(0.5),
		WeightedTraffic(0.5, nil),
		BurstyTraffic(0.9, 0.2, 0.2, nil),
		HotspotTraffic(1.0, 0, 0.8, nil),
	} {
		seq := GenerateTraffic(gen, cfg, 20, 9)
		if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
			t.Errorf("%s: %v", gen.Name(), err)
		}
	}
	// Same seed, same traffic.
	a := GenerateTraffic(UniformTraffic(0.7), cfg, 20, 33)
	b := GenerateTraffic(UniformTraffic(0.7), cfg, 20, 33)
	if len(a) != len(b) {
		t.Error("traffic generation not deterministic")
	}
}
