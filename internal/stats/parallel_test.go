package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestParBitIdentity checks every Par reduction against its serial
// counterpart bit for bit at several parallelism levels: the fixed
// 4096-element block partials make the grouping independent of P.
func TestParBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 2*4096 + 1, 1<<17 + 311} {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(16) == 0 {
				xs[i] = 0
			} else {
				xs[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
			}
		}
		for _, p := range []int{1, 2, 3, 8} {
			pp := &Par{P: p}
			bitEq := func(name string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d p=%d: %s = %v, serial %v", n, p, name, got, want)
				}
			}
			bitEq("Mean", pp.Mean(xs), Mean(xs))
			bitEq("MeanAbs", pp.MeanAbs(xs), MeanAbs(xs))
			pa, pl := pp.GammaMoments(xs)
			sa, sl := GammaMoments(xs)
			bitEq("GammaMoments mean", pa, sa)
			bitEq("GammaMoments log-mean", pl, sl)
			bitEq("Variance", pp.Variance(xs), Variance(xs))
			bitEq("MaxAbs", pp.MaxAbs(xs), MaxAbs(xs))
			gm, gv := pp.MeanVarAbs(xs)
			sm, sv := MeanVarAbs(xs)
			bitEq("MeanVarAbs mean", gm, sm)
			bitEq("MeanVarAbs var", gv, sv)
			pg, sg := pp.FitGPExceedance(xs, 0.01), FitGPExceedance(xs, 0.01)
			bitEq("FitGPExceedance shape", pg.Shape, sg.Shape)
			bitEq("FitGPExceedance scale", pg.Scale, sg.Scale)
			pga, sga := pp.FitGammaAbs(xs), FitGammaAbs(xs)
			bitEq("FitGammaAbs shape", pga.Shape, sga.Shape)
			bitEq("FitGammaAbs scale", pga.Scale, sga.Scale)
			pn, sn := pp.FitGaussian(xs), FitGaussian(xs)
			bitEq("FitGaussian mu", pn.Mu, sn.Mu)
			bitEq("FitGaussian sigma", pn.Sigma, sn.Sigma)
		}
	}
}
