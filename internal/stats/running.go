package stats

import "math"

// Running accumulates streaming mean and variance via Welford's algorithm.
// The zero value is ready to use. It backs the estimation-quality metric
// (mean ˆk/k with a 90% confidence interval) reported in every figure.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += float64(delta * (x - r.mean))
}

// Mean returns the running mean, or NaN before any observation.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased running sample variance, or NaN with fewer
// than two observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the running sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// ConfidenceInterval returns the half-width of the normal-approximation
// confidence interval for the mean at the given confidence level in (0,1),
// e.g. 0.90 for the paper's 90% error bars. It returns 0 with fewer than
// two observations.
func (r *Running) ConfidenceInterval(level float64) float64 {
	if r.n < 2 || level <= 0 || level >= 1 {
		return 0
	}
	z := NormalQuantile(0.5 + float64(level/2))
	return z * r.StdDev() / math.Sqrt(float64(r.n))
}

// EWMA is an exponentially-weighted moving average used to produce the
// "smoothed compression ratio" series of Figure 9. The zero value with
// Alpha set is ready to use.
type EWMA struct {
	// Alpha is the smoothing coefficient in (0, 1]; larger tracks faster.
	Alpha float64

	value float64
	seen  bool
}

// Add folds x into the average and returns the updated value.
func (e *EWMA) Add(x float64) float64 {
	if !e.seen {
		e.value = x
		e.seen = true
		return e.value
	}
	e.value = float64(e.Alpha*x) + float64((1-e.Alpha)*e.value)
	return e.value
}
