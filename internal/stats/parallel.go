package stats

import (
	"math"

	"repro/internal/par"
)

// Par computes the package's hot reductions across P goroutines while
// staying bit-identical to the serial functions: workers fill the same
// fixed 4096-element block partials the serial code computes, into a
// shared scratch slice, and one serial pass combines the partials in
// block order. With P <= 1 (the zero value, or a nil *Par) the blocks
// are reduced inline on the calling goroutine with no scratch or
// goroutine cost — that is what the package-level functions run. A Par
// is not concurrency-safe; each compressor instance owns one.
type Par struct {
	P     int
	parts [][3]float64
}

// serial is the reducer behind the package-level functions.
var serial *Par

// reduce applies k to every sumBlock of xs (and of g, when not nil) and
// adds the partials in block order. An empty xs reduces to zeros, which is
// what makes every mean below NaN (0/0) on empty input without a check.
func (pp *Par) reduce(xs, g []float64, k blockKernel, c float64) (total [3]float64) {
	blocks := (len(xs) + sumBlock - 1) / sumBlock
	if pp.inline(len(xs)) {
		for b := 0; b < blocks; b++ {
			p := k.block(xs, g, c, b)
			for i := range total {
				total[i] += p[i]
			}
		}
		return total
	}
	parts := pp.scratch(blocks)
	par.Do(pp.P, func(w int) {
		lo, hi := par.RangeBounds(blocks, pp.P, w)
		for b := lo; b < hi; b++ {
			parts[b] = k.block(xs, g, c, b)
		}
	})
	for _, p := range parts {
		for i := range total {
			total[i] += p[i]
		}
	}
	return total
}

// block applies k to block b of xs (and of g, when there is one).
func (k blockKernel) block(xs, g []float64, c float64, b int) [3]float64 {
	lo, hi := b*sumBlock, min((b+1)*sumBlock, len(xs))
	if g != nil {
		g = g[lo:hi]
	}
	return k(xs[lo:hi], g, c)
}

// inline reports whether a reduction over n elements runs on the calling
// goroutine: below two blocks the fan-out costs more than it saves.
func (pp *Par) inline(n int) bool { return pp == nil || pp.P <= 1 || n < 2*sumBlock }

func (pp *Par) scratch(n int) [][3]float64 {
	if cap(pp.parts) < n {
		pp.parts = make([][3]float64, n)
	}
	return pp.parts[:n]
}

// Mean is Mean at parallelism P.
func (pp *Par) Mean(xs []float64) float64 {
	return pp.reduce(xs, nil, sumKernel, 0)[0] / float64(len(xs))
}

// MeanAbs is MeanAbs at parallelism P.
func (pp *Par) MeanAbs(xs []float64) float64 { return pp.AccumulateMeanAbs(xs, nil) }

// MeanVarAbs is MeanVarAbs at parallelism P.
func (pp *Par) MeanVarAbs(xs []float64) (mean, variance float64) {
	return pp.AccumulateMeanVarAbs(xs, nil)
}

// GammaMoments is GammaMoments at parallelism P.
func (pp *Par) GammaMoments(xs []float64) (meanAbs, meanLogAbs float64) {
	return pp.AccumulateGammaMoments(xs, nil)
}

// AccumulateMeanAbs adds g into acc (acc[i] += g[i]; a nil g adds nothing)
// and returns MeanAbs of the sum in the same sweep: acc and the mean are
// bit-equal to adding first and calling MeanAbs(acc) after, at every P.
func (pp *Par) AccumulateMeanAbs(acc, g []float64) float64 {
	return pp.reduce(acc, g, absKernel, 0)[0] / float64(len(acc))
}

// AccumulateMeanVarAbs is AccumulateMeanAbs for MeanVarAbs.
func (pp *Par) AccumulateMeanVarAbs(acc, g []float64) (mean, variance float64) {
	s := pp.reduce(acc, g, absSqKernel, 0)
	return meanVar(s[0], s[1], float64(len(acc)))
}

// AccumulateGammaMoments is AccumulateMeanAbs for GammaMoments.
func (pp *Par) AccumulateGammaMoments(acc, g []float64) (meanAbs, meanLogAbs float64) {
	s := pp.reduce(acc, g, gammaKernel, 0)
	// s[2] counts the non-zero entries: 0/0 is the all-zero NaN.
	return s[0] / float64(len(acc)), s[1] / s[2]
}

// Variance is Variance at parallelism P.
func (pp *Par) Variance(xs []float64) float64 {
	return pp.reduce(xs, nil, shiftedKernel, pp.Mean(xs))[1] / float64(len(xs))
}

// MaxAbs is MaxAbs at parallelism P. The maximum is grouping-invariant
// (comparisons against NaN are false in any order), so per-worker maxima
// over contiguous ranges combine to exactly the serial result.
func (pp *Par) MaxAbs(xs []float64) float64 {
	if pp.inline(len(xs)) {
		return MaxAbs(xs)
	}
	maxes := pp.scratch(pp.P)
	par.Do(pp.P, func(w int) {
		lo, hi := par.RangeBounds(len(xs), pp.P, w)
		maxes[w][0] = MaxAbs(xs[lo:hi])
	})
	max := 0.0
	for _, m := range maxes {
		if m[0] > max {
			max = m[0]
		}
	}
	return max
}

// FitGaussian is FitGaussian at parallelism P.
func (pp *Par) FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mu: pp.Mean(xs), Sigma: math.Sqrt(pp.Variance(xs))}
}

// FitGPExceedance is FitGPExceedance at parallelism P.
func (pp *Par) FitGPExceedance(absXS []float64, loc float64) GPParams {
	s := pp.reduce(absXS, nil, shiftedKernel, loc)
	return FitGPExcess(s[0], s[1], float64(len(absXS)))
}

// FitGammaAbs is FitGammaAbs at parallelism P.
func (pp *Par) FitGammaAbs(xs []float64) GammaParams {
	return GammaFromMoments(pp.GammaMoments(xs))
}
