package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Estimator is a streaming mean estimator with Student-t confidence
// intervals: an Acc (Welford moments) plus the t-critical machinery the
// sequential ratio driver stops on. The zero value is ready to use.
//
// The Acc.CI95 normal approximation undercovers at small n (1.96 vs the
// t critical value 2.26 at n=10); Estimator.HalfWidth uses the exact
// Student-t quantile for the observed degrees of freedom, so its
// intervals achieve nominal coverage — which the estimate_test.go
// coverage suite verifies against known distributions.
type Estimator struct {
	Acc
}

// HalfWidth returns the half-width of the two-sided Student-t confidence
// interval for the mean at the given confidence level (e.g. 0.95). It is
// 0 until two observations exist.
func (e *Estimator) HalfWidth(confidence float64) float64 {
	n := e.N()
	if n < 2 {
		return 0
	}
	return TCrit(n-1, confidence) * e.Std() / math.Sqrt(float64(n))
}

// Target is a precision target for a sequential estimation: keep sampling
// until the Student-t CI half-width on the mean clears the absolute
// and/or relative width, then stop. The zero value is disabled (sampling
// runs to its budget).
type Target struct {
	// Confidence is the CI confidence level; 0 selects 0.95.
	Confidence float64
	// AbsWidth stops sampling once the CI half-width is <= AbsWidth.
	// 0 disables the absolute criterion.
	AbsWidth float64
	// RelWidth stops sampling once the CI half-width is <= RelWidth *
	// |mean|. 0 disables the relative criterion.
	RelWidth float64
	// MinSamples refuses to stop before this many observations, guarding
	// against freak early agreement; 0 selects 8.
	MinSamples int64
}

// Enabled reports whether the target imposes any stopping criterion.
func (t Target) Enabled() bool { return t.AbsWidth > 0 || t.RelWidth > 0 }

// ConfidenceLevel returns the effective confidence level (0.95 default).
func (t Target) ConfidenceLevel() float64 {
	if t.Confidence <= 0 || t.Confidence >= 1 {
		return 0.95
	}
	return t.Confidence
}

// minSamples returns the effective MinSamples floor.
func (t Target) minSamples() int64 {
	if t.MinSamples <= 0 {
		return 8
	}
	return t.MinSamples
}

// Met reports whether the estimator has reached the target: at least
// MinSamples observations and a Student-t half-width inside any enabled
// width criterion. A disabled target is never met.
func (t Target) Met(e *Estimator) bool {
	if !t.Enabled() || e.N() < max(2, t.minSamples()) {
		return false
	}
	hw := e.HalfWidth(t.ConfidenceLevel())
	if t.AbsWidth > 0 && hw <= t.AbsWidth {
		return true
	}
	return t.RelWidth > 0 && hw <= t.RelWidth*math.Abs(e.Mean())
}

// String renders the target compactly, e.g. "hw<=0.0100@95%".
func (t Target) String() string {
	if !t.Enabled() {
		return "no target"
	}
	s := ""
	if t.AbsWidth > 0 {
		s = fmt.Sprintf("hw<=%.4g", t.AbsWidth)
	}
	if t.RelWidth > 0 {
		if s != "" {
			s += " or "
		}
		s += fmt.Sprintf("hw<=%.4g*|mean|", t.RelWidth)
	}
	return fmt.Sprintf("%s@%g%%", s, 100*t.ConfidenceLevel())
}

// TCrit returns the two-sided Student-t critical value for the given
// degrees of freedom and confidence level: the t with
// P(|T_df| <= t) = confidence. Large df converge to the normal critical
// value (1.9600 at 95%). Results are memoized per (df, confidence) in a
// fixed-size table, so repeated keys cost one bisection; TCrit is safe
// for concurrent use.
func TCrit(df int64, confidence float64) float64 {
	if df < 1 {
		df = 1
	}
	if confidence <= 0 {
		return 0
	}
	if confidence >= 1 {
		return math.Inf(1)
	}
	cb := math.Float64bits(confidence)
	slot := &tcritMemo[tcritSlot(df, cb)]
	if e := slot.Load(); e != nil && e.df == df && e.conf == cb {
		return e.t
	}
	t := tcritBisect(df, confidence)
	slot.Store(&tcritEntry{df: df, conf: cb, t: t})
	return t
}

// tcritBits sizes the TCrit memo at 1<<tcritBits entries.
const tcritBits = 8

// tcritMemo is TCrit's direct-mapped memo: each slot holds the last key
// that hashed to it with its exact result, and a colliding key replaces
// it, so a long run of distinct keys (a sequential estimation's growing
// df) cannot grow it. Entries are immutable once stored.
var tcritMemo [1 << tcritBits]atomic.Pointer[tcritEntry]

// tcritEntry is one memoized TCrit result; conf holds the confidence's
// bits so the key compares exactly.
type tcritEntry struct {
	df   int64
	conf uint64
	t    float64
}

// tcritSlot hashes a (df, confidence bits) key to its memo slot.
func tcritSlot(df int64, cb uint64) int {
	return int(((uint64(df) ^ cb) * 0x9e3779b97f4a7c15) >> (64 - tcritBits))
}

// tcritBisect computes TCrit for df >= 1 and 0 < confidence < 1.
func tcritBisect(df int64, confidence float64) float64 {
	// P(|T| <= t) = 1 - I_{df/(df+t^2)}(df/2, 1/2), monotone increasing in
	// t, so bisection on the CDF is exact to float precision and needs no
	// special-cased quantile series.
	want := confidence
	lo, hi := 0.0, 2.0
	for tTwoSided(df, hi) < want {
		hi *= 2
		if hi > 1e10 {
			return hi
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if tTwoSided(df, mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tTwoSided returns P(|T_df| <= t) for t >= 0.
func tTwoSided(df int64, t float64) float64 {
	if t <= 0 {
		return 0
	}
	x := float64(df) / (float64(df) + t*t)
	return 1 - regIncBeta(float64(df)/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// via the standard continued-fraction expansion (Lentz's method), using
// the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the region where
// the fraction converges fast.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lnPre := lbeta - la - lb + a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnPre) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lnPre)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction (Numerical
// Recipes form) with modified Lentz iteration.
func betaCF(a, b, x float64) float64 {
	const (
		tiny    = 1e-300
		eps     = 1e-15
		maxIter = 300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// ExceedanceBound returns the rule-of-three-style frequency bound for a
// clean sample: if none of n independent trials exceeded a threshold,
// then with confidence 1-delta the per-trial exceedance probability is at
// most the returned p (the largest p with (1-p)^n >= delta). It backs
// statements like "no counterexample above r in n seeds => a random seed
// exceeds r with probability <= p at confidence 1-delta".
func ExceedanceBound(n int64, delta float64) float64 {
	if n <= 0 {
		return 1
	}
	if delta <= 0 {
		return 1
	}
	if delta >= 1 {
		return 0
	}
	return 1 - math.Pow(delta, 1/float64(n))
}
