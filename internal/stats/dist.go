package stats

import (
	"math"
	"math/rand"
)

// Distribution is a one-dimensional continuous distribution. All SIDCo
// threshold math flows through CDF/Quantile; Sample supports the synthetic
// gradient generator and the property tests.
type Distribution interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the inverse CDF at probability p in [0, 1].
	Quantile(p float64) float64
	// Mean returns the distribution mean (may be +Inf).
	Mean() float64
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
}

// Exponential is the exponential distribution with scale beta (mean beta).
// It models the absolute value of Laplace-distributed gradients
// (Corollary 1.1): |G| ~ Exp(beta).
type Exponential struct {
	Scale float64 // beta > 0
}

// PDF implements Distribution.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Exp(-x/e.Scale) / e.Scale
}

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x / e.Scale)
}

// Quantile implements Distribution: F^-1(p) = -beta log(1-p).
func (e Exponential) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return -e.Scale * math.Log1p(-p)
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return e.Scale }

// Sample implements Distribution.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() * e.Scale }

// Laplace is the double exponential distribution, symmetric around zero
// with scale beta — the first of the paper's three sparsity-inducing
// distributions (Property 2).
type Laplace struct {
	Scale float64 // beta > 0
}

// PDF implements Distribution.
func (l Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x)/l.Scale) / (2 * l.Scale)
}

// CDF implements Distribution.
func (l Laplace) CDF(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/l.Scale)
	}
	return 1 - 0.5*math.Exp(-x/l.Scale)
}

// Quantile implements Distribution.
func (l Laplace) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p < 0.5:
		return l.Scale * math.Log(2*p)
	default:
		return -l.Scale * math.Log(2*(1-p))
	}
}

// Mean implements Distribution.
func (l Laplace) Mean() float64 { return 0 }

// Abs returns the distribution of |X| for X ~ Laplace(beta), which is
// Exponential(beta).
//
//sidco:oracle the exact |G| law simgrad's threshold test takes quantiles of
func (l Laplace) Abs() Exponential { return Exponential{Scale: l.Scale} }

// Sample implements Distribution.
func (l Laplace) Sample(rng *rand.Rand) float64 {
	mag := rng.ExpFloat64() * l.Scale
	if rng.Intn(2) == 0 {
		return -mag
	}
	return mag
}

// Gamma is the gamma distribution with shape alpha and scale beta. With
// alpha <= 1 it models the absolute value of double-gamma distributed
// gradients (Corollary 1.2).
type Gamma struct {
	Shape float64 // alpha > 0
	Scale float64 // beta > 0
}

// PDF implements Distribution.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case g.Shape < 1:
			return math.Inf(1)
		case g.Shape == 1:
			return 1 / g.Scale
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp((g.Shape-1)*math.Log(x) - x/g.Scale - g.Shape*math.Log(g.Scale) - lg)
}

// CDF implements Distribution: F(x) = P(alpha, x/beta).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(g.Shape, x/g.Scale)
}

// Quantile implements Distribution via the inverse regularized incomplete
// gamma function.
func (g Gamma) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	return g.Scale * InverseRegularizedGammaP(g.Shape, p)
}

// Mean implements Distribution.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// Sample implements Distribution using the Marsaglia–Tsang squeeze method,
// with the standard alpha < 1 boost.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	alpha := g.Shape
	boost := 1.0
	if alpha < 1 {
		boost = math.Pow(rng.Float64(), 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Scale
		}
	}
}

// DoubleGamma is the symmetric double gamma distribution: the sign is
// Rademacher and |X| ~ Gamma(alpha, beta). It is the second SID of
// Property 2.
type DoubleGamma struct {
	Shape float64
	Scale float64
}

// PDF implements Distribution.
func (d DoubleGamma) PDF(x float64) float64 {
	return 0.5 * Gamma{d.Shape, d.Scale}.PDF(math.Abs(x))
}

// CDF implements Distribution.
func (d DoubleGamma) CDF(x float64) float64 {
	g := Gamma{d.Shape, d.Scale}
	if x < 0 {
		return 0.5 * (1 - g.CDF(-x))
	}
	return 0.5 + 0.5*g.CDF(x)
}

// Quantile implements Distribution.
func (d DoubleGamma) Quantile(p float64) float64 {
	g := Gamma{d.Shape, d.Scale}
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p < 0.5:
		return -g.Quantile(1 - 2*p)
	default:
		return g.Quantile(2*p - 1)
	}
}

// Mean implements Distribution.
func (d DoubleGamma) Mean() float64 { return 0 }

// Abs returns the distribution of |X|: Gamma(alpha, beta).
//
//sidco:oracle the exact |G| law simgrad's threshold test takes quantiles of
func (d DoubleGamma) Abs() Gamma { return Gamma{d.Shape, d.Scale} }

// Sample implements Distribution.
func (d DoubleGamma) Sample(rng *rand.Rand) float64 {
	mag := Gamma{d.Shape, d.Scale}.Sample(rng)
	if rng.Intn(2) == 0 {
		return -mag
	}
	return mag
}

// GeneralizedPareto is the generalized Pareto distribution GP(alpha, beta,
// a) with shape alpha, scale beta and location a, in the paper's
// parameterisation (Corollary 1.3 and Lemma 2): for alpha != 0,
//
//	F(x) = 1 - (1 + alpha*(x-a)/beta)^(-1/alpha),  x >= a.
//
// alpha -> 0 degenerates to the shifted exponential. For alpha < 0 the
// support is bounded above at a - beta/alpha.
type GeneralizedPareto struct {
	Shape float64 // alpha, typically in (-1/2, 1/2)
	Scale float64 // beta > 0
	Loc   float64 // a
}

// PDF implements Distribution.
func (g GeneralizedPareto) PDF(x float64) float64 {
	z := (x - g.Loc) / g.Scale
	if z < 0 {
		return 0
	}
	if g.Shape == 0 {
		return math.Exp(-z) / g.Scale
	}
	t := 1 + g.Shape*z
	if t <= 0 {
		return 0
	}
	return math.Pow(t, -1/g.Shape-1) / g.Scale
}

// CDF implements Distribution.
func (g GeneralizedPareto) CDF(x float64) float64 {
	z := (x - g.Loc) / g.Scale
	if z <= 0 {
		return 0
	}
	if g.Shape == 0 {
		return -math.Expm1(-z)
	}
	t := 1 + g.Shape*z
	if t <= 0 {
		return 1 // above the upper support bound (alpha < 0)
	}
	return 1 - math.Pow(t, -1/g.Shape)
}

// Quantile implements Distribution:
// F^-1(p) = a + beta/alpha * ((1-p)^(-alpha) - 1).
func (g GeneralizedPareto) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if g.Shape == 0 {
		return g.Loc - g.Scale*math.Log1p(-p)
	}
	return g.Loc + g.Scale/g.Shape*math.Expm1(-g.Shape*math.Log1p(-p))
}

// Mean implements Distribution. The mean is finite only for alpha < 1.
func (g GeneralizedPareto) Mean() float64 {
	if g.Shape >= 1 {
		return math.Inf(1)
	}
	return g.Loc + g.Scale/(1-g.Shape)
}

// Sample implements Distribution by inverse-CDF sampling.
func (g GeneralizedPareto) Sample(rng *rand.Rand) float64 {
	return g.Quantile(rng.Float64())
}

// DoubleGP is the symmetric double generalized Pareto distribution around
// zero — the third SID of Property 2: sign Rademacher, |X| ~ GP(alpha,
// beta, 0).
type DoubleGP struct {
	Shape float64
	Scale float64
}

// PDF implements Distribution.
func (d DoubleGP) PDF(x float64) float64 {
	return 0.5 * GeneralizedPareto{d.Shape, d.Scale, 0}.PDF(math.Abs(x))
}

// CDF implements Distribution.
func (d DoubleGP) CDF(x float64) float64 {
	g := GeneralizedPareto{d.Shape, d.Scale, 0}
	if x < 0 {
		return 0.5 * (1 - g.CDF(-x))
	}
	return 0.5 + 0.5*g.CDF(x)
}

// Quantile implements Distribution.
func (d DoubleGP) Quantile(p float64) float64 {
	g := GeneralizedPareto{d.Shape, d.Scale, 0}
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p < 0.5:
		return -g.Quantile(1 - 2*p)
	default:
		return g.Quantile(2*p - 1)
	}
}

// Mean implements Distribution.
func (d DoubleGP) Mean() float64 { return 0 }

// Abs returns the distribution of |X|: GP(alpha, beta, 0).
//
//sidco:oracle the exact |G| law simgrad's threshold test takes quantiles of
func (d DoubleGP) Abs() GeneralizedPareto {
	return GeneralizedPareto{d.Shape, d.Scale, 0}
}

// Sample implements Distribution.
func (d DoubleGP) Sample(rng *rand.Rand) float64 {
	mag := GeneralizedPareto{d.Shape, d.Scale, 0}.Sample(rng)
	if rng.Intn(2) == 0 {
		return -mag
	}
	return mag
}

// Gaussian is the normal distribution, used by the GaussianKSGD baseline
// and by tests.
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// PDF implements Distribution.
func (g Gaussian) PDF(x float64) float64 {
	z := (x - g.Mu) / g.Sigma
	return math.Exp(-z*z/2) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Distribution.
func (g Gaussian) CDF(x float64) float64 {
	return NormalCDF((x - g.Mu) / g.Sigma)
}

// Quantile implements Distribution.
func (g Gaussian) Quantile(p float64) float64 {
	return g.Mu + g.Sigma*NormalQuantile(p)
}

// Mean implements Distribution.
func (g Gaussian) Mean() float64 { return g.Mu }

// Sample implements Distribution.
func (g Gaussian) Sample(rng *rand.Rand) float64 {
	return g.Mu + g.Sigma*rng.NormFloat64()
}
