package stats

import "sort"

// QuantileSketch estimates a fixed set of quantiles from a stream of
// observations in O(1) memory, using the P² algorithm (Jain & Chlamtac,
// "The P² algorithm for dynamic calculation of quantiles and histograms
// without storing observations", CACM 1985). Each tracked quantile keeps
// five markers whose heights approximate the quantile as observations
// arrive; the first five observations are held exactly and answered
// exactly.
//
// The sketch is fully deterministic: feeding two sketches the same
// observations in the same order leaves them in identical states, so the
// front-end differential tests can compare sketches with
// reflect.DeepEqual the same way they compare every other metric.
type QuantileSketch struct {
	qs    []float64
	count int64
	first [5]float64 // exact buffer for the first five observations
	est   []p2est
}

// p2est is the five-marker P² state for one tracked quantile.
type p2est struct {
	q  float64
	h  [5]float64 // marker heights
	n  [5]float64 // actual marker positions (1-based)
	np [5]float64 // desired marker positions
	dn [5]float64 // desired-position increments per observation
}

// NewQuantileSketch tracks the given quantile probabilities, each in
// (0, 1). Duplicates are tolerated; order is preserved for Targets.
func NewQuantileSketch(qs ...float64) *QuantileSketch {
	s := &QuantileSketch{qs: append([]float64(nil), qs...), est: make([]p2est, len(qs))}
	for i, q := range qs {
		s.est[i].q = q
	}
	return s
}

// Targets returns the tracked quantile probabilities, in construction
// order.
func (s *QuantileSketch) Targets() []float64 { return append([]float64(nil), s.qs...) }

// Count returns the number of observations added.
func (s *QuantileSketch) Count() int64 { return s.count }

// Add folds one observation into every tracked quantile's markers.
func (s *QuantileSketch) Add(x float64) {
	if s.count < 5 {
		s.first[s.count] = x
		s.count++
		if s.count == 5 {
			s.initMarkers()
		}
		return
	}
	s.count++
	for i := range s.est {
		s.est[i].add(x)
	}
}

// initMarkers seeds each quantile's markers from the sorted first five
// observations, per the P² initialization step.
func (s *QuantileSketch) initMarkers() {
	var sorted [5]float64
	copy(sorted[:], s.first[:])
	sort.Float64s(sorted[:])
	for i := range s.est {
		e := &s.est[i]
		e.h = sorted
		e.n = [5]float64{1, 2, 3, 4, 5}
		q := e.q
		e.np = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
		e.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	}
}

// add runs one P² update: locate the cell containing x (extending the
// extreme markers if x falls outside them), shift the positions, and
// nudge each interior marker toward its desired position with a
// piecewise-parabolic (falling back to linear) height adjustment.
func (e *p2est) add(x float64) {
	var k int
	switch {
	case x < e.h[0]:
		e.h[0] = x
		k = 0
	case x >= e.h[4]:
		e.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := e.parabolic(i, sign)
			if !(e.h[i-1] < h && h < e.h[i+1]) {
				h = e.linear(i, sign)
			}
			e.h[i] = h
			e.n[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *p2est) parabolic(i int, d float64) float64 {
	return e.h[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.h[i+1]-e.h[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.h[i]-e.h[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction when the parabola would break
// marker monotonicity.
func (e *p2est) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.h[i] + d*(e.h[j]-e.h[i])/(e.n[j]-e.n[i])
}

// estimate returns the current height of the center marker — the P²
// quantile estimate.
func (e *p2est) estimate() float64 { return e.h[2] }

// Query returns the estimate for probability q. Tracked probabilities
// answer directly from their markers; other probabilities interpolate
// piecewise-linearly through the tracked estimates, anchored at the
// observed minimum (q=0) and maximum (q=1), so the whole [0, 1] range is
// answerable the way the histogram-backed path is. With five or fewer
// observations the answer is exact.
func (s *QuantileSketch) Query(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if s.count <= 5 {
		exact := append([]float64(nil), s.first[:s.count]...)
		sort.Float64s(exact)
		return quantileSorted(exact, q)
	}
	if len(s.est) == 0 {
		return 0
	}
	// Assemble the known (probability, estimate) anchors: min, each
	// tracked quantile, max — sorted by probability.
	type anchor struct{ p, v float64 }
	anchors := make([]anchor, 0, len(s.est)+2)
	anchors = append(anchors, anchor{0, s.est[0].h[0]})
	for i := range s.est {
		anchors = append(anchors, anchor{s.est[i].q, s.est[i].estimate()})
	}
	anchors = append(anchors, anchor{1, s.est[0].h[4]})
	sort.Slice(anchors, func(a, b int) bool { return anchors[a].p < anchors[b].p })
	if q <= anchors[0].p {
		return anchors[0].v
	}
	for i := 1; i < len(anchors); i++ {
		if q <= anchors[i].p {
			lo, hi := anchors[i-1], anchors[i]
			if hi.p == lo.p {
				return hi.v
			}
			frac := (q - lo.p) / (hi.p - lo.p)
			return lo.v*(1-frac) + hi.v*frac
		}
	}
	return anchors[len(anchors)-1].v
}
