// Package stats provides the statistical substrate for SIDCo: special
// functions, sparsity-inducing distributions (exponential, gamma,
// generalized Pareto) with closed-form fitters, empirical distribution
// utilities, and descriptive statistics.
//
// Everything is implemented from scratch on top of the Go standard library
// (math, math/rand) so the repository is self-contained and offline.
//
// Every product that feeds an add or a subtract is converted explicitly,
// float64(x*y), so that no compiler fuses the two into one rounding: the
// arm64 build, whose compiler would, computes what the amd64 one does.
//
// Every reduction over a vector keeps one summation order, whoever
// computes it: each sumBlock is one add chain per sum, started at 0.0 and
// run in element order, and the block partials add in block order. The
// chain is serial only inside a block, so blocks may run side by side —
// AccumulateMeanAbs (with a second vector) and the gamma sweep sum four
// consecutive blocks at once, four chains in flight, and the last
// len%(4·sumBlock) elements one block at a time — but no order inside a
// block may change: that moves every digest.
//
// On an amd64 CPU with AVX2 (internal/cpu, probed once at start-up; there
// is no setting) the gamma moment sweep behind GammaMoments and
// AccumulateGammaMoments runs from gamma_amd64.s: four blocks side by
// side, each sub-block's groups of four up to a group holding a
// subnormal, ±Inf or NaN, which the Go loop takes (it needs math.Log) for
// the blocks that have not run it; the tail blocks go through the
// one-block body, which leaves the Go loop the last len%4. The rule that
// keeps the bodies bit for bit the Go loop: every sum keeps the loop's
// order — Σ|x| one scalar add per element in element order; each normal
// mantissa multiplied into the chain the loop's alternation gives it (a
// block's two chains are the two lanes of one register, swapped after a
// group with an odd count of normals, and a zero's lane multiplies by an
// exact 1.0); the exponents an integer sum — and never a fused
// multiply-add. With a second vector the sum v = r + g is stored back
// only for a group the body runs, and such a group holds no NaN, so no
// operand order decides a payload. TestAVX2GammaMatchesGo holds the
// one-block body to the Go loop, TestGammaSumMatchesOneBlock the
// four-block sweep to the one-block loop, and the gamma tests run on both
// paths.
package stats

import "math"

const (
	specialEps     = 1e-14
	specialMaxIter = 300
)

// RegularizedGammaP computes P(a, x), the regularized lower incomplete
// gamma function: P(a,x) = γ(a,x)/Γ(a) for a > 0, x >= 0.
//
// It uses the series expansion for x < a+1 and the continued fraction for
// x >= a+1 (Numerical Recipes style), which together cover the full domain
// with relative error near machine precision.
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < specialMaxIter; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) by its continued fraction
// (modified Lentz), accurate for x >= a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= specialMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return math.Exp(-x+float64(a*math.Log(x))-lg) * h
}

// InverseRegularizedGammaP returns x such that P(a, x) = p for a > 0 and
// p in [0, 1). It seeds with the Wilson–Hilferty approximation and polishes
// with Halley-accelerated Newton iterations on P(a,x) - p.
//
// This is the exact quantile route for the gamma-distributed absolute
// gradients of Corollary 1.2, and SIDCo-GP's first stage by default
// (core.ThresholdGammaExact); core.Config.ApproxGamma selects the
// closed-form approximation instead, and tests compare the two.
func InverseRegularizedGammaP(a, p float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(p) || p < 0 || p >= 1:
		return math.NaN()
	case p == 0:
		return 0
	}
	lg, _ := math.Lgamma(a)

	// Wilson–Hilferty initial guess.
	var x float64
	if a > 0.5 {
		z := NormalQuantile(p)
		t := 1 - 1/(9*a) + z/(3*math.Sqrt(a))
		x = a * t * t * t
	} else {
		// Small-shape seed from the series leading term:
		// P(a,x) ~ x^a / (a*Gamma(a)) for small x.
		x = math.Exp((math.Log(p) + lg + math.Log(a)) / a)
	}
	if x <= 0 || math.IsNaN(x) {
		x = a // fall back to the mean
	}

	for i := 0; i < 60; i++ {
		f := RegularizedGammaP(a, x) - p
		// dP/dx = x^(a-1) e^-x / Gamma(a)
		lpdf := float64((a-1)*math.Log(x)) - x - lg
		df := math.Exp(lpdf)
		if df == 0 {
			break
		}
		// Halley step: second derivative factor ((a-1)/x - 1).
		u := f / df
		step := u / (1 - float64(0.5*math.Min(1, math.Max(-1, u*((a-1)/x-1)))))
		xNew := x - step
		if xNew <= 0 {
			xNew = x / 2
		}
		if math.Abs(xNew-x) < specialEps*math.Max(1, x) {
			return xNew
		}
		x = xNew
	}
	return x
}

// NormalQuantile returns the quantile (inverse CDF) of the standard normal
// distribution at probability p in (0, 1), using the Acklam rational
// approximation refined by one Halley step against math.Erfc. Absolute
// error is below 1e-13 across the domain.
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = horner(q, acklamC[:]) / horner(q, acklamD[:])
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = horner(r, acklamA[:]) * q / horner(r, acklamB[:])
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -horner(q, acklamC[:]) / horner(q, acklamD[:])
	}

	// One Halley refinement against the exact CDF.
	e := float64(0.5*math.Erfc(-x/math.Sqrt2)) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+float64(x*u/2))
	return x
}

// Acklam's coefficients, highest power first; the denominators end in 1.
var (
	acklamA = [...]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	acklamB = [...]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01, 1}
	acklamC = [...]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	acklamD = [...]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00, 1}
)

// horner evaluates the polynomial with coefficients c, highest power
// first, at x by Horner's rule, each product rounded before its add.
func horner(x float64, c []float64) float64 {
	r := c[0]
	for _, ci := range c[1:] {
		r = float64(r*x) + ci
	}
	return r
}

// NormalCDF returns the standard normal cumulative distribution function
// at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// LogGamma returns ln|Γ(x)|, a thin convenience wrapper over math.Lgamma
// that drops the sign (all SIDCo uses have x > 0).
func LogGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}
