package stats

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccAgainstNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		var a Acc
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			a.Add(xs[i])
		}
		var sum float64
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			sum += x
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 &&
			math.Abs(a.Var()-variance) < 1e-6 &&
			a.Min() == mn && a.Max() == mx && a.N() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccEmptyAndSingle(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Var() != 0 || a.Min() != 0 || a.Max() != 0 || a.CI95() != 0 {
		t.Error("empty accumulator not all-zero")
	}
	a.Add(4)
	if a.Mean() != 4 || a.Var() != 0 || a.Min() != 4 || a.Max() != 4 {
		t.Error("single-observation accumulator wrong")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Acc
	for i := 0; i < 10; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %f vs %f", large.CI95(), small.CI95())
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified. It is the
// one-quantile reference the tests hold Quantiles and the P² sketch to.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Error("single-element quantile wrong")
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-longer-name", 42)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "beta-longer-name") || !strings.Contains(out, "1.5000") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`say "hi"`, "x,y")
	tb.AddRow("plain", 3)
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	want := "a,b\n\"say \"\"hi\"\"\",\"x,y\"\nplain,3\n"
	if buf.String() != want {
		t.Errorf("csv:\n%q\nwant:\n%q", buf.String(), want)
	}
}
