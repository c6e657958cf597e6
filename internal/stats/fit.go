package stats

import "math"

// FitExponentialAbs fits Exp(beta) to the absolute values of xs by maximum
// likelihood: beta-hat = mean|x| (Corollary 1.1). xs holds raw (signed)
// gradient values.
func FitExponentialAbs(xs []float64) Exponential {
	return Exponential{Scale: MeanAbs(xs)}
}

// GammaParams holds the shape/scale estimates of a gamma fit.
type GammaParams struct {
	Shape float64
	Scale float64
}

// FitGammaAbs fits Gamma(alpha, beta) to the absolute values of xs using
// Minka's closed-form approximation to the MLE (eq. 16/27 in the paper):
//
//	s      = log(mean|x|) - mean(log|x|)
//	alpha  = (3 - s + sqrt((s-3)^2 + 24 s)) / (12 s)
//	beta   = mean|x| / alpha
//
// Zero entries are skipped in the log-mean (they carry no shape
// information); degenerate inputs produce NaN parameters, which callers
// treat as "fit unavailable".
func FitGammaAbs(xs []float64) GammaParams { return GammaFromMoments(GammaMoments(xs)) }

// GammaFromMoments is the Minka closed form above from the two moments
// GammaMoments returns: the one place the formula lives. A non-positive
// or NaN s — constant, all-zero or empty data — gives NaN parameters.
func GammaFromMoments(meanAbs, meanLogAbs float64) GammaParams {
	s := math.Log(meanAbs) - meanLogAbs
	if !(s > 0) {
		return GammaParams{Shape: math.NaN(), Scale: math.NaN()}
	}
	alpha := (3 - s + math.Sqrt(float64((s-3)*(s-3))+float64(24*s))) / (12 * s)
	return GammaParams{Shape: alpha, Scale: meanAbs / alpha}
}

// GPParams holds the shape/scale estimates of a generalized Pareto fit
// (location is supplied by the caller as the previous-stage threshold).
type GPParams struct {
	Shape float64
	Scale float64
}

// FitGPMoments fits GP(alpha, beta) by moment matching (Hosking & Wallis;
// eq. 8-9/29 in the paper) to data with the given mean and population
// variance of the (location-shifted) absolute values:
//
//	alpha = (1 - mu^2/sigma^2) / 2
//	beta  = mu (mu^2/sigma^2 + 1) / 2
//
// Valid when the first two moments exist, i.e. alpha < 1/2.
func FitGPMoments(mean, variance float64) GPParams {
	if !(variance > 0) || !(mean > 0) {
		return GPParams{Shape: math.NaN(), Scale: math.NaN()}
	}
	r := mean * mean / variance
	return GPParams{
		Shape: 0.5 * (1 - r),
		Scale: 0.5 * mean * (r + 1),
	}
}

// FitGPAbs fits GP(alpha, beta) by moment matching to the absolute values
// of xs (location zero).
func FitGPAbs(xs []float64) GPParams {
	mu, v := MeanVarAbs(xs)
	return FitGPMoments(mu, v)
}

// FitGPExcess fits GP(alpha, beta) to exceedances over a threshold loc,
// per Lemma 2 (the moments are those of |g| - loc), from the sums a gather
// over the threshold already took: Σ(|x|-loc) and Σ(|x|-loc)² over n
// exceedances.
func FitGPExcess(sum, sumSq, n float64) GPParams {
	return FitGPMoments(meanVar(sum, sumSq, n))
}

// FitGaussian fits a normal distribution to xs by maximum likelihood
// (sample mean and population standard deviation). The GaussianKSGD
// baseline uses this on raw gradients.
func FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mu: Mean(xs), Sigma: math.Sqrt(Variance(xs))}
}
