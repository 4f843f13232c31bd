package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueDistsRespectBounds(t *testing.T) {
	dists := []struct {
		d   ValueDist
		max int64
	}{
		{UnitValues{}, 1},
		{TwoValued{Alpha: 16, PHigh: 0.3}, 16},
		{UniformValues{Hi: 40}, 40},
		{UniformValues{Hi: 1}, 1},
		{ZipfValues{Hi: 100, S: 1.0}, 100},
		{ZipfValues{Hi: 100, S: 1.5}, 100},
		{ZipfValues{Hi: 1, S: 2}, 1},
		{GeometricValues{P: 0.4, Hi: 20}, 20},
		{BimodalValues{LowHi: 5, HighLo: 50, HighHi: 60, PHigh: 0.2}, 60},
	}
	for _, tc := range dists {
		t.Run(tc.d.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < 5000; k++ {
				v := tc.d.Sample(rng)
				if v < 1 {
					t.Fatalf("sample %d < 1", v)
				}
				if v > tc.max {
					t.Fatalf("sample %d exceeds the bound %d", v, tc.max)
				}
			}
		})
	}
}

func TestUnitValuesAlwaysOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := UnitValues{}
	for k := 0; k < 100; k++ {
		if d.Sample(rng) != 1 {
			t.Fatal("unit value != 1")
		}
	}
}

func TestTwoValuedFrequencies(t *testing.T) {
	d := TwoValued{Alpha: 8, PHigh: 0.25}
	rng := rand.New(rand.NewSource(3))
	var high int
	const n = 20000
	for k := 0; k < n; k++ {
		v := d.Sample(rng)
		if v != 1 && v != 8 {
			t.Fatalf("two-valued produced %d", v)
		}
		if v == 8 {
			high++
		}
	}
	frac := float64(high) / n
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("high fraction %.3f, want ~0.25", frac)
	}
}

func TestZipfSkewsTowardSmallValues(t *testing.T) {
	d := ZipfValues{Hi: 1000, S: 1.5}
	rng := rand.New(rand.NewSource(4))
	var small, large int
	for k := 0; k < 20000; k++ {
		v := d.Sample(rng)
		if v <= 10 {
			small++
		}
		if v > 500 {
			large++
		}
	}
	if small <= large*10 {
		t.Errorf("zipf not skewed: small=%d large=%d", small, large)
	}
}

func TestGeometricMeanRoughlyOneOverP(t *testing.T) {
	d := GeometricValues{P: 0.25, Hi: 1000}
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const n = 20000
	for k := 0; k < n; k++ {
		sum += float64(d.Sample(rng))
	}
	mean := sum / n
	if mean < 3.4 || mean > 4.6 { // E = 1/p = 4
		t.Errorf("geometric mean %.2f, want ~4", mean)
	}
}

func TestBimodalStaysInBands(t *testing.T) {
	d := BimodalValues{LowHi: 5, HighLo: 50, HighHi: 60, PHigh: 0.5}
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 5000; k++ {
		v := d.Sample(rng)
		if !(v >= 1 && v <= 5) && !(v >= 50 && v <= 60) {
			t.Fatalf("bimodal sample %d outside both bands", v)
		}
	}
}

func TestGeometricChainStrictlyIncreasing(t *testing.T) {
	f := func(seed uint8) bool {
		beta := 1.0 + float64(seed%40)/20 // [1.0, 3.0)
		chain := GeometricChain(1, beta, 12)
		for i := 1; i < len(chain); i++ {
			if chain[i] <= chain[i-1] {
				return false
			}
		}
		return chain[0] >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricChainGrowthFactor(t *testing.T) {
	chain := GeometricChain(1, 2.0, 10)
	for i := 1; i < len(chain); i++ {
		ratio := float64(chain[i]) / float64(chain[i-1])
		if ratio < 1.9 || ratio > 2.6 {
			t.Errorf("chain step %d ratio %.2f strays from ~2", i, ratio)
		}
	}
}
