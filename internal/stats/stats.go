// Package stats provides the small statistics toolkit used by the
// benchmark harness: streaming moments (Welford), quantiles (exact and
// the constant-space P² sketch), confidence intervals (normal CI95 and
// exact Student-t via Estimator/TCrit), sequential precision Targets,
// rule-of-three exceedance bounds, and ASCII/CSV table rendering.
package stats

import (
	"math"
	"sort"
)

// Acc is a streaming accumulator for mean and variance (Welford's
// algorithm), plus min/max. The zero value is ready to use.
type Acc struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Acc) N() int64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Acc) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 when empty).
func (a *Acc) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Acc) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (a *Acc) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.Std() / math.Sqrt(float64(a.n))
}

// Quantiles returns the quantiles of xs at each probability in qs
// (0 <= q <= 1), using linear interpolation between order statistics. It
// copies and sorts xs once, so the cost is O(n log n + |qs|). xs is not
// modified.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// quantileSorted reads the q-th quantile off already-sorted data.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
