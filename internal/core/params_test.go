package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDefaultBetaPG(t *testing.T) {
	if !almost(DefaultBetaPG(), 2.41421356, 1e-6) {
		t.Errorf("beta = %v, want 1+sqrt(2)", DefaultBetaPG())
	}
}

func TestPGRatioAtOptimum(t *testing.T) {
	// Theorem 2: ratio = 3 + 2*sqrt(2) at beta = 1 + sqrt(2).
	got := PGRatio(DefaultBetaPG())
	want := 3 + 2*math.Sqrt2
	if !almost(got, want, 1e-9) {
		t.Errorf("PGRatio(beta*) = %v, want %v", got, want)
	}
	if !almost(want, 5.8284, 1e-3) {
		t.Errorf("3+2sqrt2 = %v, expected about 5.8284", want)
	}
}

func TestPGBetaIsTheMinimizer(t *testing.T) {
	best := PGRatio(DefaultBetaPG())
	for b := 1.01; b < 10; b += 0.001 {
		if PGRatio(b) < best-1e-9 {
			t.Fatalf("PGRatio(%v) = %v beats the claimed optimum %v", b, PGRatio(b), best)
		}
	}
}

func TestCPGClosedForms(t *testing.T) {
	rho := RhoCPG()
	if !almost(rho*rho*rho, 19+3*math.Sqrt(33), 1e-9) {
		t.Errorf("rho^3 = %v, want 19+3sqrt33", rho*rho*rho)
	}
	beta := DefaultBetaCPG()
	alpha := DefaultAlphaCPG()
	if !almost(alpha, 2/((beta-1)*(beta-1)), 1e-12) {
		t.Errorf("alpha = %v does not satisfy alpha = 2/(beta-1)^2", alpha)
	}
	// Theorem 4: the bound at (beta*, alpha*) is about 14.83 and matches
	// the paper's closed form.
	got := CPGRatio(beta, alpha)
	if !almost(got, 14.83, 5e-3) {
		t.Errorf("CPGRatio(beta*, alpha*) = %v, want about 14.83", got)
	}
	if !almost(got, CPGRatioClosedForm(), 1e-6) {
		t.Errorf("ratio %v != closed form %v", got, CPGRatioClosedForm())
	}
}

func TestCPGNumericMinimumMatchesClosedForm(t *testing.T) {
	b, a, r := MinimizeCPG()
	if !almost(b, DefaultBetaCPG(), 1e-4) {
		t.Errorf("numeric beta %v vs closed form %v", b, DefaultBetaCPG())
	}
	if !almost(a, DefaultAlphaCPG(), 1e-3) {
		t.Errorf("numeric alpha %v vs closed form %v", a, DefaultAlphaCPG())
	}
	if !almost(r, CPGRatioClosedForm(), 1e-6) {
		t.Errorf("numeric ratio %v vs closed form %v", r, CPGRatioClosedForm())
	}
}

func TestCPGEqualParamsStrictlyWorse(t *testing.T) {
	// Kesselman et al.'s algorithm is CPG with beta = alpha; under the
	// paper's sharper bound formula its best achievable value is about
	// 15.59 — still strictly worse than the asymmetric optimum 14.83
	// (and better than the 16.24 originally proven for it, consistent
	// with the paper's claim that the analysis itself improved).
	b, r := MinimizeCPGEqualParams()
	if !almost(r, 15.59, 2e-2) {
		t.Errorf("equal-params minimum %v at beta=%v, want about 15.59", r, b)
	}
	if r <= CPGRatioClosedForm()+0.5 {
		t.Errorf("equal-params ratio %v not clearly worse than asymmetric %v",
			r, CPGRatioClosedForm())
	}
	if r >= 16.24 {
		t.Errorf("equal-params ratio %v should beat the originally proven 16.24", r)
	}
}

func TestCPGRatioGridNeverBeatsOptimum(t *testing.T) {
	best := CPGRatioClosedForm()
	for b := 1.05; b < 6; b += 0.01 {
		for a := 1.05; a < 8; a += 0.01 {
			if CPGRatio(b, a) < best-1e-6 {
				t.Fatalf("CPGRatio(%v,%v) = %v beats claimed optimum %v",
					b, a, CPGRatio(b, a), best)
			}
		}
	}
}

func TestGoldenSectionFindsParabolaMinimum(t *testing.T) {
	got := goldenSection(func(x float64) float64 { return (x - 3.7) * (x - 3.7) }, 0, 10)
	if !almost(got, 3.7, 1e-6) {
		t.Errorf("golden section min %v, want 3.7", got)
	}
}

// TestThresholdOutOfRangeReadsOne: every threshold parameter resolves
// through Threshold, so a β or α below 1, negative or NaN runs exactly
// as 1 does — KR-MWM included, whose sub-1 β used to make the engine
// reject its transfers.
func TestThresholdOutOfRangeReadsOne(t *testing.T) {
	if got := Threshold(0, 7); got != 7 {
		t.Errorf("Threshold(0, 7) = %v, want the default", got)
	}
	if got := Threshold(math.Inf(1), 7); !math.IsInf(got, 1) {
		t.Errorf("Threshold(+Inf, 7) = %v, want +Inf", got)
	}
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 1, CrossBuf: 1, Speedup: 2}
	seq := packet.Bernoulli{Load: 1.5, Values: packet.UniformValues{Hi: 100}}.Generate(rand.New(rand.NewSource(3)), 4, 4, 50)
	for _, v := range []float64{0.5, -3, math.NaN()} {
		for _, c := range []struct{ got, want switchsim.CIOQPolicy }{
			{&PG{Beta: v}, &PG{Beta: 1}},
			{&KRMWM{Beta: v}, &KRMWM{Beta: 1}},
			{&ARFIFO{Beta: v}, &ARFIFO{Beta: 1}},
		} {
			if got, want := mustRunCIOQ(t, cfg, c.got, seq), mustRunCIOQ(t, cfg, c.want, seq); !reflect.DeepEqual(got.M, want.M) {
				t.Errorf("%T at %v ran unlike at 1", c.got, v)
			}
		}
		for _, c := range []struct{ got, want switchsim.CrossbarPolicy }{
			{&CPG{Beta: v, Alpha: v}, &CPG{Beta: 1, Alpha: 1}},
			{&KKSFIFO{Beta: v}, &KKSFIFO{Beta: 1}},
		} {
			if got, want := mustRunXbar(t, cfg, c.got, seq), mustRunXbar(t, cfg, c.want, seq); !reflect.DeepEqual(got.M, want.M) {
				t.Errorf("%T at %v ran unlike at 1", c.got, v)
			}
		}
	}
}
