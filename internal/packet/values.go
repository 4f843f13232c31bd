package packet

import (
	"fmt"
	"math"
	"math/rand"
)

// ValueDist draws packet values. All distributions return values >= 1 and
// are fully determined by the *rand.Rand passed in, which keeps traffic
// generation reproducible from a seed.
type ValueDist interface {
	// Name identifies the distribution (used in reports and CSV headers).
	Name() string
	// Sample draws one value.
	Sample(rng *rand.Rand) int64
}

// UnitValues is the unit-value case: every packet has value 1.
type UnitValues struct{}

// Name implements ValueDist.
func (UnitValues) Name() string { return "unit" }

// Sample implements ValueDist.
func (UnitValues) Sample(*rand.Rand) int64 { return 1 }

// TwoValued produces value 1 with probability 1-PHigh and Alpha otherwise.
// This is the {1, α} model studied for FIFO switches in the related work
// (Englert–Westermann, Kobayashi et al.).
type TwoValued struct {
	Alpha int64   // the high value, > 1
	PHigh float64 // probability of drawing Alpha
}

// Name implements ValueDist.
func (d TwoValued) Name() string { return fmt.Sprintf("two{1,%d;p=%.2f}", d.Alpha, d.PHigh) }

// Sample implements ValueDist.
func (d TwoValued) Sample(rng *rand.Rand) int64 {
	if rng.Float64() < d.PHigh {
		return d.Alpha
	}
	return 1
}

// UniformValues draws uniformly from [1, Hi].
type UniformValues struct {
	Hi int64
}

// Name implements ValueDist.
func (d UniformValues) Name() string { return fmt.Sprintf("uniform[1,%d]", d.Hi) }

// Sample implements ValueDist.
func (d UniformValues) Sample(rng *rand.Rand) int64 {
	if d.Hi <= 1 {
		return 1
	}
	return 1 + rng.Int63n(d.Hi)
}

// ZipfValues draws from a truncated Zipf-like distribution on [1, Hi]:
// P(v) ∝ 1/v^S. Heavy-tailed values model a small number of high-priority
// packets among mostly low-priority traffic.
type ZipfValues struct {
	Hi int64
	S  float64 // exponent, > 0; larger = more skewed toward 1
}

// Name implements ValueDist.
func (d ZipfValues) Name() string { return fmt.Sprintf("zipf[1,%d;s=%.2f]", d.Hi, d.S) }

// Sample implements ValueDist.
func (d ZipfValues) Sample(rng *rand.Rand) int64 {
	if d.Hi <= 1 {
		return 1
	}
	// Inverse-CDF sampling on the discretized power law via rejection-free
	// approximation: draw u and invert the continuous CDF of x^-s on [1,Hi+1).
	s := d.S
	if s == 1 {
		u := rng.Float64()
		v := math.Pow(float64(d.Hi+1), u)
		iv := int64(v)
		if iv < 1 {
			iv = 1
		}
		if iv > d.Hi {
			iv = d.Hi
		}
		return iv
	}
	u := rng.Float64()
	hi := float64(d.Hi + 1)
	v := math.Pow(u*(math.Pow(hi, 1-s)-1)+1, 1/(1-s))
	iv := int64(v)
	if iv < 1 {
		iv = 1
	}
	if iv > d.Hi {
		iv = d.Hi
	}
	return iv
}

// GeometricValues draws 1 + Geometric(P) capped at Hi: value v has
// probability ∝ (1-P)^(v-1). Models exponential-ish value decay.
type GeometricValues struct {
	P  float64 // success probability in (0,1)
	Hi int64   // cap
}

// Name implements ValueDist.
func (d GeometricValues) Name() string { return fmt.Sprintf("geom[p=%.2f,cap=%d]", d.P, d.Hi) }

// Sample implements ValueDist.
func (d GeometricValues) Sample(rng *rand.Rand) int64 {
	v := int64(1)
	for v < d.Hi && rng.Float64() > d.P {
		v++
	}
	return v
}

// BimodalValues mixes two uniform bands: [1, LowHi] with probability
// 1-PHigh and [HighLo, HighHi] with probability PHigh. It models a strict
// two-class QoS split with intra-class spread.
type BimodalValues struct {
	LowHi  int64
	HighLo int64
	HighHi int64
	PHigh  float64
}

// Name implements ValueDist.
func (d BimodalValues) Name() string {
	return fmt.Sprintf("bimodal[1-%d|%d-%d;p=%.2f]", d.LowHi, d.HighLo, d.HighHi, d.PHigh)
}

// Sample implements ValueDist.
func (d BimodalValues) Sample(rng *rand.Rand) int64 {
	if rng.Float64() < d.PHigh {
		span := d.HighHi - d.HighLo + 1
		if span <= 1 {
			return d.HighLo
		}
		return d.HighLo + rng.Int63n(span)
	}
	if d.LowHi <= 1 {
		return 1
	}
	return 1 + rng.Int63n(d.LowHi)
}

// GeometricChain returns the deterministic geometric value β^k rounded to
// integers, scaled so that the first element is `base`. It is used by
// adversarial constructions that build preemption chains: each value
// exceeds the previous by a factor slightly above beta.
func GeometricChain(base int64, beta float64, n int) []int64 {
	out := make([]int64, n)
	v := float64(base)
	for i := 0; i < n; i++ {
		out[i] = int64(math.Ceil(v))
		v *= beta
	}
	// Enforce strict growth even after rounding.
	for i := 1; i < n; i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}
