package stats

import (
	"math"
	"math/rand"
	"testing"
)

func sampleN(d Distribution, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

func TestFitExponentialAbsRecoversScale(t *testing.T) {
	for _, beta := range []float64{0.01, 0.3, 2, 50} {
		xs := sampleN(Laplace{Scale: beta}, 100000, 1)
		fit := FitExponentialAbs(xs)
		if math.Abs(fit.Scale-beta)/beta > 0.03 {
			t.Errorf("beta=%v: fitted %v", beta, fit.Scale)
		}
	}
}

func TestFitGammaAbsRecoversParams(t *testing.T) {
	for _, c := range []struct{ shape, scale float64 }{
		{0.5, 1.0}, {0.8, 0.01}, {1.0, 2.0}, {2.5, 0.5},
	} {
		xs := sampleN(DoubleGamma{Shape: c.shape, Scale: c.scale}, 120000, 3)
		fit := FitGammaAbs(xs)
		if math.Abs(fit.Shape-c.shape)/c.shape > 0.05 {
			t.Errorf("shape=%v: fitted %v", c.shape, fit.Shape)
		}
		if math.Abs(fit.Scale-c.scale)/c.scale > 0.06 {
			t.Errorf("scale=%v: fitted %v", c.scale, fit.Scale)
		}
	}
}

func TestFitGammaAbsDegenerateInput(t *testing.T) {
	// Constant data gives s = 0, which has no gamma MLE; the fitter must
	// signal that with NaN rather than returning garbage.
	fit := FitGammaAbs([]float64{2, 2, 2, 2})
	if !math.IsNaN(fit.Shape) {
		t.Errorf("constant data: shape = %v, want NaN", fit.Shape)
	}
	fit = FitGammaAbs(nil)
	if !math.IsNaN(fit.Shape) {
		t.Errorf("empty data: shape = %v, want NaN", fit.Shape)
	}
	fit = FitGammaAbs([]float64{0, 0, 0})
	if !math.IsNaN(fit.Shape) {
		t.Errorf("all-zero data: shape = %v, want NaN", fit.Shape)
	}
}

func TestFitGammaSkipsZeros(t *testing.T) {
	// Adding exact zeros must not poison the fit with log(0).
	xs := sampleN(DoubleGamma{Shape: 0.9, Scale: 1}, 50000, 4)
	withZeros := append(append([]float64{}, xs...), make([]float64, 1000)...)
	fit := FitGammaAbs(withZeros)
	if math.IsNaN(fit.Shape) || math.IsInf(fit.Shape, 0) {
		t.Errorf("zeros poisoned the gamma fit: shape=%v", fit.Shape)
	}
}

func TestFitGPMomentsRecoversParams(t *testing.T) {
	for _, c := range []struct{ shape, scale float64 }{
		{0.3, 1.0}, {0.1, 0.02}, {-0.2, 1.5}, {0.45, 0.7},
	} {
		xs := sampleN(DoubleGP{Shape: c.shape, Scale: c.scale}, 400000, 5)
		fit := FitGPAbs(xs)
		// Moment matching has higher variance than MLE, especially as
		// shape -> 1/2 where the second moment blows up.
		tol := 0.12
		if c.shape > 0.4 {
			tol = 0.35
		}
		if math.Abs(fit.Shape-c.shape) > tol {
			t.Errorf("shape=%v: fitted %v", c.shape, fit.Shape)
		}
		if math.Abs(fit.Scale-c.scale)/c.scale > tol {
			t.Errorf("scale=%v: fitted %v", c.scale, fit.Scale)
		}
	}
}

func TestFitGPMomentsFormula(t *testing.T) {
	// Spot-check against the closed form: for mu=1, sigma^2=2,
	// alpha = (1 - 1/2)/2 = 0.25, beta = (1/2 + 1)/2 = 0.75.
	fit := FitGPMoments(1, 2)
	if math.Abs(fit.Shape-0.25) > 1e-12 || math.Abs(fit.Scale-0.75) > 1e-12 {
		t.Errorf("FitGPMoments(1,2) = %+v, want {0.25 0.75}", fit)
	}
}

func TestFitGPMomentsDegenerate(t *testing.T) {
	if fit := FitGPMoments(0, 1); !math.IsNaN(fit.Shape) {
		t.Errorf("zero mean: %+v", fit)
	}
	if fit := FitGPMoments(1, 0); !math.IsNaN(fit.Shape) {
		t.Errorf("zero variance: %+v", fit)
	}
	if fit := FitGPExcess(0, 0, 0); !math.IsNaN(fit.Shape) {
		t.Errorf("empty exceedance: %+v", fit)
	}
}

func TestFitGPExceedanceRecoversTail(t *testing.T) {
	// Exceedances of a GP over a threshold are GP with the same shape
	// (threshold stability of the GP family, Lemma 2).
	const shape, scale = 0.25, 1.0
	gp := GeneralizedPareto{Shape: shape, Scale: scale, Loc: 0}
	rng := rand.New(rand.NewSource(6))
	const eta = 2.0
	var sum, sumSq, n float64
	for n < 200000 {
		if x := gp.Sample(rng); x > eta {
			sum += x - eta
			sumSq += (x - eta) * (x - eta)
			n++
		}
	}
	fit := FitGPExcess(sum, sumSq, n)
	if math.Abs(fit.Shape-shape) > 0.05 {
		t.Errorf("tail shape: got %v, want %v", fit.Shape, shape)
	}
	// Theoretical exceedance scale: beta + alpha*eta.
	wantScale := scale + shape*eta
	if math.Abs(fit.Scale-wantScale)/wantScale > 0.08 {
		t.Errorf("tail scale: got %v, want %v", fit.Scale, wantScale)
	}
}

func TestFitGaussianRecoversParams(t *testing.T) {
	xs := sampleN(Gaussian{Mu: 1.5, Sigma: 0.7}, 100000, 7)
	fit := FitGaussian(xs)
	if math.Abs(fit.Mu-1.5) > 0.02 || math.Abs(fit.Sigma-0.7) > 0.02 {
		t.Errorf("gaussian fit: %+v", fit)
	}
}

func TestGammaApproxThresholdCloseToExact(t *testing.T) {
	// The paper's closed-form gamma threshold (eq. 15) should be within a
	// modest factor of the exact inverse-CDF threshold for shape near 1.
	for _, alpha := range []float64{0.7, 0.9, 1.0, 1.1} {
		for _, delta := range []float64{0.1, 0.01, 0.001} {
			g := Gamma{Shape: alpha, Scale: 1}
			exact := g.Quantile(1 - delta)
			approx := -1 * (math.Log(delta) + LogGamma(alpha))
			if alpha == 1 {
				if math.Abs(exact-approx) > 1e-8 {
					t.Errorf("alpha=1 delta=%v: exact %v approx %v should coincide", delta, exact, approx)
				}
				continue
			}
			ratio := approx / exact
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("alpha=%v delta=%v: approx/exact = %v", alpha, delta, ratio)
			}
		}
	}
}
