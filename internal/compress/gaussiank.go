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
	factor float64 // cumulative correction, lazily initialised to 1
}

// GaussianKSGD's adjustment schedule: none while the count is within
// gaussEpsilon of k; after over-selection factor *= 1+gaussStepUp, after
// under-selection factor *= 1-gaussStepDown.
const (
	gaussEpsilon  float64 = 0.1
	gaussStepUp   float64 = 0.5
	gaussStepDown float64 = 0.05
)

// NewGaussianKSGD creates the estimator.
func NewGaussianKSGD() *GaussianKSGD { return &GaussianKSGD{} }

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
	case float64(nnz) > float64(k)*(1+gaussEpsilon):
		c.factor *= 1 + gaussStepUp
	case float64(nnz) < float64(k)*(1-gaussEpsilon):
		c.factor *= 1 - gaussStepDown
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
