package compress

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// GaussianKSGD implements the Gaussian-fit threshold estimator of
// GaussianK-SGD (Shi et al., 2019): each iteration fits a normal
// distribution to the gradient and takes the (1 - delta/2) Gaussian
// quantile as the base threshold, corrected by a multiplicative factor
// adjusted iteratively from the previously achieved selection count.
//
// The adjustment is asymmetric — over-selection (which costs
// communication) is punished with a large step, under-selection recovered
// with a small one — so on heavy-tailed gradients the factor ratchets
// upward and the achieved ratio collapses far below the target, matching
// the near-zero compression ratios the paper observes at delta = 0.001
// (Figures 4b, 4d, 9).
type GaussianKSGD struct {
	// Epsilon is the relative tolerance band around k within which no
	// adjustment happens (default 0.1).
	Epsilon float64
	// StepUp is the multiplicative factor increase applied after
	// over-selection (default 0.5, i.e. factor *= 1.5).
	StepUp float64
	// StepDown is the decrease applied after under-selection (default
	// 0.05).
	StepDown float64

	factor float64 // cumulative correction, lazily initialised to 1
}

// NewGaussianKSGD creates the estimator with the default adjustment
// schedule.
func NewGaussianKSGD() *GaussianKSGD {
	return &GaussianKSGD{Epsilon: 0.1, StepUp: 0.5, StepDown: 0.05}
}

// Name implements Compressor.
func (*GaussianKSGD) Name() string { return "gaussiank" }

// CompressInto implements Compressor. The receiver carries the
// correction factor across iterations, mirroring the stateful heuristic
// of the original method.
//
//sidco:hotpath
func (c *GaussianKSGD) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		return err
	}
	if c.factor == 0 {
		c.factor = 1
	}
	d := len(g)
	k := TargetK(d, delta)

	fit := stats.FitGaussian(g)
	base := math.Abs(fit.Mu) + float64(fit.Sigma*stats.NormalQuantile(1-float64(delta/2)))
	if base <= 0 || math.IsNaN(base) {
		base = stats.MaxAbs(g)
	}
	eta := base * c.factor

	dst.Reset(d)
	dst.Idx, dst.Vals = tensor.FilterAboveThreshold(g, eta, dst.Idx, dst.Vals)
	nnz := dst.NNZ()

	// Iterative adjustment for the next call.
	switch {
	case float64(nnz) > float64(k)*(1+c.Epsilon):
		c.factor *= 1 + c.StepUp
	case float64(nnz) < float64(k)*(1-c.Epsilon):
		c.factor *= 1 - c.StepDown
	}
	const minFactor, maxFactor = 1e-2, 1e2
	if c.factor < minFactor {
		c.factor = minFactor
	}
	if c.factor > maxFactor {
		c.factor = maxFactor
	}
	return nil
}
