package labelmodel

import "math"

// This file holds the transcendental kernels of the fast trainer's row pass.
// Every distinct row costs one exponential and one logarithm, which at
// stdlib speed is most of a training pass; these are the classic Cephes
// rational approximations (Moshier, netlib cephes), accurate to ~2 ulp over
// the ranges used here, inlined argument reduction and all, so the row pass
// is arithmetic-only. Unit tests compare them against math.Exp/math.Log1p
// across the full input range.

// softplusSigmoidNeg returns log1p(e^−x) and σ(x) = 1/(1+e^−x) for x ≥ 0.
// Both come from a single e^−x evaluation, and the whole computation spends
// exactly one FP division: with u = 1+e reduced to z ∈ [√2/2, √2] and the
// Cephes log rational w³·P(w)/Q(w), the reciprocal d = 1/(u·Q) yields both
// σ = 1/u = Q·d and P/Q = P·u·d — the divider, not the polynomial ALU, is
// what bounds the row-pass throughput. For x > 40, e^−x < 5e−18 is below
// double rounding of both results.
func softplusSigmoidNeg(x float64) (sp, sig float64) {
	if x > 40 {
		return 0, 1
	}
	e := expPoly(-x) // in (0, 1]
	u := 1 + e
	z := u
	var kc float64
	if z > sqrt2 {
		z *= 0.5
		kc = 1
	}
	w := z - 1
	ww := w * w
	p := logP5 + w*(logP4+w*(logP3+w*(logP2+w*(logP1+w*logP0))))
	q := logQ4 + w*(logQ3+w*(logQ2+w*(logQ1+w*(logQ0+w))))
	d := 1 / (u * q)
	sig = q * d
	y := ww * w * p * u * d
	y -= 0.5 * ww
	y += kc * ln2Lo
	y += w
	y += kc * ln2Hi
	return y, sig
}

// Argument-reduction constants of both kernels.
const (
	log2E = 1.4426950408889634073599 // 1/ln2
	ln2Hi = 6.93145751953125e-1
	ln2Lo = 1.42860682030941723212e-6
	sqrt2 = 1.41421356237309504880
)

// expPoly computes e^x for x ∈ [−45, 0] without a division: after the
// usual base-2 argument reduction the residual r ∈ [−ln2/2, ln2/2] goes
// through the degree-8 Taylor polynomial (truncation ~r⁹/9! < 3e−9
// relative there, far inside the kernel's accuracy target), evaluated
// Estrin-style — two short chains over x² instead of one long Horner
// dependency chain, since this serial latency sits on every compacted
// row's critical path.
func expPoly(x float64) float64 {
	k := math.Floor(log2E*x + 0.5)
	x -= k * ln2Hi
	x -= k * ln2Lo
	xx := x * x
	even := 1 + xx*(1.0/2+xx*(1.0/24+xx*(1.0/720+xx*(1.0/40320))))
	odd := 1 + xx*(1.0/6+xx*(1.0/120+xx*(1.0/5040)))
	e := even + x*odd
	// Scale by 2^k through the exponent bits: e ∈ [~0.7, ~1.5] and
	// k ∈ [−65, 0], so the result stays normal and the bit add is exact.
	return math.Float64frombits(math.Float64bits(e) + uint64(int64(k))<<52)
}

// Cephes log coefficients: log(z) = w − w²/2 + w³·P(w)/Q(w) + k·ln2 after
// reducing z to [√2/2, √2], w = z − 1.
const (
	logP0 = 1.01875663804580931796e-4
	logP1 = 4.97494994976747001425e-1
	logP2 = 4.70579119878881725854e0
	logP3 = 1.44989225341610930846e1
	logP4 = 1.79368678507819816313e1
	logP5 = 7.70838733755885391666e0

	logQ0 = 1.12873587189167450590e1
	logQ1 = 4.52279145837532221105e1
	logQ2 = 8.29875266912776603211e1
	logQ3 = 7.11544750618563894466e1
	logQ4 = 2.31251620126765340583e1
)
