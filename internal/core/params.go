package core

import "math"

// DefaultBetaPG is the optimal trade-off parameter for PG: β = 1 + √2,
// which minimizes β + 2β/(β-1) and yields the competitive ratio 3 + 2√2
// ≈ 5.8284 (Theorem 2).
func DefaultBetaPG() float64 { return 1 + math.Sqrt2 }

// Threshold resolves a preemption-threshold parameter — PG's β, CPG's β
// and α, the FIFO baselines' β: zero selects def, and any other value
// that is not at least 1, NaN included, reads as 1. The scalar policies
// and the fleet kernels both resolve through it, so the two engines make
// the same decisions for every parameter value.
func Threshold(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if !(v >= 1) {
		return 1
	}
	return v
}

// PGRatio evaluates PG's competitive-ratio bound β + 2β/(β-1) for a given
// β > 1 (the bound proven in Section 2.2: the β term covers packets the
// optimum sends from output queues, the 2β/(β-1) term covers privileged
// packets through the preemption-chain argument).
func PGRatio(beta float64) float64 {
	return beta + 2*beta/(beta-1)
}

// RhoCPG is ρ = (19 + 3√33)^(1/3), the cubic-root constant in the closed
// form of CPG's optimal β (Theorem 4).
func RhoCPG() float64 {
	return math.Cbrt(19 + 3*math.Sqrt(33))
}

// DefaultBetaCPG is the paper's optimal β for CPG: β = (ρ² + ρ + 4)/(3ρ).
func DefaultBetaCPG() float64 {
	rho := RhoCPG()
	return (rho*rho + rho + 4) / (3 * rho)
}

// DefaultAlphaCPG is the paper's optimal α for CPG: α = 2/(β-1)².
func DefaultAlphaCPG() float64 {
	b := DefaultBetaCPG()
	return 2 / ((b - 1) * (b - 1))
}

// CPGRatio evaluates CPG's competitive-ratio bound
//
//	αβ + (2αβ + αβ(β-1)) / ((α-1)(β-1))
//
// for α, β > 1 (Section 3.2: the αβ term covers output-queue transmissions,
// the second term bounds the total value of privileged packets).
func CPGRatio(beta, alpha float64) float64 {
	return alpha*beta + (2*alpha*beta+alpha*beta*(beta-1))/((alpha-1)*(beta-1))
}

// CPGRatioClosedForm is the paper's closed form for the optimal ratio:
// ((χ+4)ρ² + (χ+16)ρ + 56)/12 with χ = 19 - 3√33 ≈ 14.8284. It exists so
// tests can confirm the closed form matches CPGRatio at (β*, α*).
func CPGRatioClosedForm() float64 {
	rho := RhoCPG()
	chi := 19 - 3*math.Sqrt(33)
	return ((chi+4)*rho*rho + (chi+16)*rho + 56) / 12
}

// MinimizeCPGEqualParams numerically minimizes CPGRatio(β, β) over β > 1 —
// the constrained parameter choice of Kesselman et al.'s original buffered
// crossbar algorithm (β = α). Under the paper's sharper bound formula the
// constrained minimum is ≈ 15.59 (the original analysis proved 16.24);
// either way it is strictly worse than the asymmetric optimum ≈ 14.83,
// which is the point of Theorem 4. Returns (β*, ratio*).
func MinimizeCPGEqualParams() (beta, ratio float64) {
	f := func(b float64) float64 { return CPGRatio(b, b) }
	b := goldenSection(f, 1.0001, 16)
	return b, f(b)
}

// MinimizeCPG numerically minimizes CPGRatio over both parameters with
// nested golden-section searches. It exists to verify the closed forms:
// tests assert the numeric optimum matches (DefaultBetaCPG, DefaultAlphaCPG)
// to high precision.
func MinimizeCPG() (beta, alpha, ratio float64) {
	inner := func(b float64) (float64, float64) {
		a := goldenSection(func(a float64) float64 { return CPGRatio(b, a) }, 1.0001, 64)
		return a, CPGRatio(b, a)
	}
	b := goldenSection(func(b float64) float64 { _, r := inner(b); return r }, 1.0001, 16)
	a, r := inner(b)
	return b, a, r
}

// goldenSection minimizes a unimodal function on [lo, hi].
func goldenSection(f func(float64) float64, lo, hi float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < 200; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}
