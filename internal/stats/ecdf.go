package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample: the Kolmogorov–Smirnov distance of the fitting figures.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied and sorted.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// KSDistance returns the Kolmogorov–Smirnov statistic sup_x |F_n(x) -
// F(x)| between the empirical CDF and the model distribution — the
// goodness-of-fit measure used by the Figure 2/8 fitting studies.
func (e *ECDF) KSDistance(d Distribution) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	maxDiff := 0.0
	for i, x := range e.sorted {
		f := d.CDF(x)
		lo := float64(i) / float64(n)   // F_n just below x
		hi := float64(i+1) / float64(n) // F_n at x
		if diff := math.Abs(f - lo); diff > maxDiff {
			maxDiff = diff
		}
		if diff := math.Abs(f - hi); diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}
