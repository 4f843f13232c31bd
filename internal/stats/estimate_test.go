package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTCritKnownValues pins the Student-t critical values against
// standard table entries.
func TestTCritKnownValues(t *testing.T) {
	cases := []struct {
		df   int64
		conf float64
		want float64
	}{
		{1, 0.95, 12.7062},
		{2, 0.95, 4.3027},
		{4, 0.95, 2.7764},
		{9, 0.95, 2.2622},
		{10, 0.95, 2.2281},
		{30, 0.95, 2.0423},
		{100, 0.95, 1.9840},
		{1000, 0.95, 1.9623},
		{9, 0.99, 3.2498},
		{9, 0.90, 1.8331},
	}
	for _, c := range cases {
		got := TCrit(c.df, c.conf)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("TCrit(%d, %v) = %.4f, want %.4f", c.df, c.conf, got, c.want)
		}
	}
	if TCrit(10, 0) != 0 {
		t.Errorf("TCrit at confidence 0 should be 0")
	}
	if !math.IsInf(TCrit(10, 1), 1) {
		t.Errorf("TCrit at confidence 1 should be +Inf")
	}
	// df < 1 clamps to 1 rather than misbehaving.
	if got, want := TCrit(0, 0.95), TCrit(1, 0.95); got != want {
		t.Errorf("TCrit(0) = %v, want clamp to TCrit(1) = %v", got, want)
	}
}

// TestTCritMatchesNormalLimit checks convergence to the normal critical
// value for large df.
func TestTCritMatchesNormalLimit(t *testing.T) {
	if got := TCrit(1_000_000, 0.95); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("TCrit(1e6, 0.95) = %.5f, want ~1.95996", got)
	}
}

// coverage runs `resamples` independent experiments drawing n samples
// from draw and reports the fraction of Student-t intervals (at conf)
// containing trueMean.
func coverage(t *testing.T, rng *rand.Rand, draw func(*rand.Rand) float64,
	trueMean float64, n, resamples int, conf float64) float64 {
	t.Helper()
	hits := 0
	for r := 0; r < resamples; r++ {
		var e Estimator
		for i := 0; i < n; i++ {
			e.Add(draw(rng))
		}
		hw := e.HalfWidth(conf)
		lo, hi := e.Mean()-hw, e.Mean()+hw
		if lo <= trueMean && trueMean <= hi {
			hits++
		}
	}
	return float64(hits) / float64(resamples)
}

// TestCoverageNominal asserts the t-CI achieves nominal 95% coverage
// within ±2% over 1000 fixed-seed resamples of three known
// distributions: normal (exact t theory), lognormal (skewed) and
// two-point (discrete).
func TestCoverageNominal(t *testing.T) {
	const (
		resamples = 1000
		conf      = 0.95
		tol       = 0.02
	)
	cases := []struct {
		name     string
		n        int
		trueMean float64
		draw     func(*rand.Rand) float64
	}{
		{"normal", 15, 3.0, func(r *rand.Rand) float64 { return 3.0 + 2.0*r.NormFloat64() }},
		{"lognormal", 60, math.Exp(0.125), func(r *rand.Rand) float64 { return math.Exp(0.5 * r.NormFloat64()) }},
		{"two-point", 40, 0.5, func(r *rand.Rand) float64 {
			if r.Float64() < 0.5 {
				return 0
			}
			return 1
		}},
	}
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		cov := coverage(t, rng, c.draw, c.trueMean, c.n, resamples, conf)
		if math.Abs(cov-conf) > tol {
			t.Errorf("%s: coverage %.3f outside nominal %.2f±%.2f (n=%d, %d resamples)",
				c.name, cov, conf, tol, c.n, resamples)
		}
	}
}

// TestNormalApproxUndercoversSmallN documents why Estimator exists: at
// n=5 the Acc.CI95 1.96-sigma interval undercovers while the t interval
// stays nominal.
func TestNormalApproxUndercoversSmallN(t *testing.T) {
	const resamples = 2000
	rng := rand.New(rand.NewSource(7))
	tHits, zHits := 0, 0
	for r := 0; r < resamples; r++ {
		var e Estimator
		for i := 0; i < 5; i++ {
			e.Add(rng.NormFloat64())
		}
		if hw := e.HalfWidth(0.95); e.Mean()-hw <= 0 && 0 <= e.Mean()+hw {
			tHits++
		}
		if ci := e.CI95(); e.Mean()-ci <= 0 && 0 <= e.Mean()+ci {
			zHits++
		}
	}
	tCov := float64(tHits) / resamples
	zCov := float64(zHits) / resamples
	if tCov < 0.93 {
		t.Errorf("t coverage at n=5: %.3f, want >= 0.93", tCov)
	}
	if zCov >= tCov {
		t.Errorf("normal approx coverage %.3f should undercover vs t %.3f at n=5", zCov, tCov)
	}
}

// TestPairedShrinkage asserts the core variance-reduction claim: on a
// strongly correlated pair, the CI of the paired per-sample difference is
// >= 5x narrower than the CI of the difference of independent samples.
func TestPairedShrinkage(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(11))
	var paired, indep Estimator
	for i := 0; i < n; i++ {
		z := rng.NormFloat64() // shared workload noise
		x := z + 0.05*rng.NormFloat64()
		y := z + 0.1 + 0.05*rng.NormFloat64()
		paired.Add(y - x)
		// Independent arms: two unrelated workload draws.
		zx, zy := rng.NormFloat64(), rng.NormFloat64()
		indep.Add((zy + 0.1 + 0.05*rng.NormFloat64()) - (zx + 0.05*rng.NormFloat64()))
	}
	hwP := paired.HalfWidth(0.95)
	hwI := indep.HalfWidth(0.95)
	if hwP <= 0 || hwI <= 0 {
		t.Fatalf("half-widths must be positive, got paired=%v indep=%v", hwP, hwI)
	}
	if hwI < 5*hwP {
		t.Errorf("paired CI should shrink >=5x: paired hw=%.4f indep hw=%.4f (ratio %.1fx)",
			hwP, hwI, hwI/hwP)
	}
}

func TestEstimatorHalfWidthSmallN(t *testing.T) {
	var e Estimator
	if hw := e.HalfWidth(0.95); hw != 0 {
		t.Errorf("empty estimator half-width = %v, want 0", hw)
	}
	e.Add(1)
	if hw := e.HalfWidth(0.95); hw != 0 {
		t.Errorf("n=1 half-width = %v, want 0", hw)
	}
	e.Add(3)
	// n=2, df=1: hw = 12.706 * std/sqrt(2); std = sqrt(2) for {1,3}.
	want := 12.7062 * math.Sqrt2 / math.Sqrt2
	if hw := e.HalfWidth(0.95); math.Abs(hw-want) > 1e-2 {
		t.Errorf("n=2 half-width = %v, want %v", hw, want)
	}
}

func TestTargetSemantics(t *testing.T) {
	if (Target{}).Enabled() {
		t.Error("zero target must be disabled")
	}
	if (Target{}).Met(&Estimator{}) {
		t.Error("disabled target must never be met")
	}
	if got := (Target{}).ConfidenceLevel(); got != 0.95 {
		t.Errorf("default confidence = %v, want 0.95", got)
	}
	if got := (Target{Confidence: 0.9}).ConfidenceLevel(); got != 0.9 {
		t.Errorf("explicit confidence = %v, want 0.9", got)
	}

	tgt := Target{AbsWidth: 0.5}
	var e Estimator
	for i := 0; i < 7; i++ {
		e.Add(10) // zero variance: hw = 0 immediately
	}
	if tgt.Met(&e) {
		t.Error("target met before MinSamples floor (default 8)")
	}
	e.Add(10)
	if !tgt.Met(&e) {
		t.Error("zero-variance sample should meet an absolute target at n=8")
	}

	rel := Target{RelWidth: 0.01, MinSamples: 2}
	var f Estimator
	f.Add(99.9)
	f.Add(100.1)
	// hw = 12.706*std/sqrt(2) ~ 1.27; 1% of mean is 1.0 => not met.
	if rel.Met(&f) {
		t.Error("relative target met too early")
	}
	for i := 0; i < 20; i++ {
		f.Add(100)
	}
	if !rel.Met(&f) {
		t.Errorf("relative target should be met at n=%d (hw=%v)", f.N(), f.HalfWidth(0.95))
	}

	if s := (Target{}).String(); s != "no target" {
		t.Errorf("disabled target string = %q", s)
	}
	both := Target{AbsWidth: 0.01, RelWidth: 0.05}
	if s := both.String(); s == "" || s == "no target" {
		t.Errorf("enabled target string = %q", s)
	}
}

func TestExceedanceBound(t *testing.T) {
	// Rule of three: at 95% confidence and large n, bound ~ 3/n.
	if got := ExceedanceBound(1000, 0.05); math.Abs(got-3.0/1000) > 3e-4 {
		t.Errorf("ExceedanceBound(1000, 0.05) = %v, want ~0.003", got)
	}
	// Exact identity: (1-p)^n = delta at the returned p.
	for _, n := range []int64{1, 2, 10, 59} {
		p := ExceedanceBound(n, 0.05)
		if back := math.Pow(1-p, float64(n)); math.Abs(back-0.05) > 1e-12 {
			t.Errorf("n=%d: (1-p)^n = %v, want 0.05", n, back)
		}
	}
	// More trials => tighter bound.
	if ExceedanceBound(10, 0.05) <= ExceedanceBound(100, 0.05) {
		t.Error("bound must tighten with n")
	}
	if ExceedanceBound(0, 0.05) != 1 || ExceedanceBound(10, 0) != 1 {
		t.Error("degenerate inputs must return the vacuous bound 1")
	}
	if ExceedanceBound(10, 1) != 0 {
		t.Error("delta=1 must return 0")
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) + I_{1-x}(b,a) = 1.
	if got := regIncBeta(3, 5, 0.3) + regIncBeta(5, 3, 0.7); math.Abs(got-1) > 1e-12 {
		t.Errorf("symmetry sum = %v, want 1", got)
	}
}

// TestTCritMemoBitIdentical: the memoized TCrit equals the bisection bit
// for bit on every key, on a first call and on a repeat, and a key evicted
// by a colliding key is recomputed to the same bits.
func TestTCritMemoBitIdentical(t *testing.T) {
	type key struct {
		df   int64
		conf float64
	}
	want := map[key]float64{}
	check := func(k key) {
		t.Helper()
		if got := TCrit(k.df, k.conf); math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Fatalf("TCrit(%d, %v) = %v, bisection %v", k.df, k.conf, got, want[k])
		}
	}
	bySlot := map[int][]key{}
	for _, conf := range []float64{0.90, 0.95, 0.99} {
		for df := int64(1); df <= 5000; df++ {
			k := key{df, conf}
			want[k] = tcritBisect(df, conf)
			check(k)
			check(k)
			s := tcritSlot(df, math.Float64bits(conf))
			bySlot[s] = append(bySlot[s], k)
		}
	}
	collided := 0
	for _, keys := range bySlot {
		if len(keys) < 2 {
			continue
		}
		collided++
		a, b := keys[0], keys[len(keys)-1]
		check(a)
		check(b) // evicts a
		check(a)
		check(b)
	}
	if collided == 0 {
		t.Fatal("no two keys share a memo slot; the eviction path went untested")
	}
}

// TestTCritMemoConcurrent races callers over keys that share memo slots;
// every answer must still be the bisection's.
func TestTCritMemoConcurrent(t *testing.T) {
	const workers, dfs = 8, 600
	want := map[[2]float64]uint64{}
	confs := []float64{0.90, 0.95, 0.99}
	for _, conf := range confs {
		for df := int64(1); df <= dfs; df++ {
			want[[2]float64{float64(df), conf}] = math.Float64bits(tcritBisect(df, conf))
		}
	}
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		go func() {
			bad := ""
			for i := 0; i < 3*dfs && bad == ""; i++ {
				df := int64(1 + (i*7+w*131)%dfs)
				conf := confs[(i+w)%len(confs)]
				if got := math.Float64bits(TCrit(df, conf)); got != want[[2]float64{float64(df), conf}] {
					bad = fmt.Sprintf("TCrit(%d, %v) bits %x, want %x", df, conf, got, want[[2]float64{float64(df), conf}])
				}
			}
			errs <- bad
		}()
	}
	for w := 0; w < workers; w++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}
