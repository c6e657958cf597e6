package stats

import (
	"math"
	"sort"
)

// sumBlock is the fixed accumulation granularity of every mean/variance
// reduction in this package: partial sums are computed per 4096-element
// block and combined in block order. The grouping is part of every
// result's bits, and through the thresholds of every selection: changing
// it moves run digests and golden losses.
const sumBlock = 4096

// A blockKernel reduces one sumBlock of a vector to at most three
// partial sums (unused slots stay zero). c is the kernel's constant — a
// centre or a location — for the kernels that take one. Each reduction's
// per-element loop is written once, here, and driven by reduce.
//
// Given g, the same block of a second vector, the first-stage kernels
// (abs, absSq, gamma) store v = blk[i] + g[i] back into blk and accumulate
// on v as they do on x: "blk += g, then reduce" in one sweep, same bits.
type blockKernel func(blk, g []float64, c float64) [3]float64

// reduce applies k to every sumBlock of xs (and of g, when not nil) and
// adds the partials in block order. An empty xs reduces to zeros, which is
// what makes every mean below NaN (0/0) on empty input without a check.
func reduce(xs, g []float64, k blockKernel, c float64) (total [3]float64) {
	for lo := 0; lo < len(xs); lo += sumBlock {
		hi := min(lo+sumBlock, len(xs))
		var gb []float64
		if g != nil {
			gb = g[lo:hi]
		}
		p := k(xs[lo:hi], gb, c)
		for i := range total {
			total[i] += p[i]
		}
	}
	return total
}

// sumKernel: Σx.
func sumKernel(blk, _ []float64, _ float64) [3]float64 {
	s := 0.0
	for _, x := range blk {
		s += x
	}
	return [3]float64{s}
}

// absKernel: Σ|x|.
//
//sidco:hotpath
func absKernel(blk, g []float64, _ float64) [3]float64 {
	s := 0.0
	if g == nil {
		for _, x := range blk {
			s += math.Abs(x)
		}
		return [3]float64{s}
	}
	for i, r := range blk[:len(g)] {
		v := r + g[i]
		blk[i] = v
		s += math.Abs(v)
	}
	return [3]float64{s}
}

// absSqKernel: Σ|x| and Σx².
//
//sidco:hotpath
func absSqKernel(blk, g []float64, _ float64) [3]float64 {
	s, s2 := 0.0, 0.0
	if g == nil {
		for _, x := range blk {
			a := math.Abs(x)
			s += a
			s2 += a * a
		}
		return [3]float64{s, s2}
	}
	for i, r := range blk[:len(g)] {
		v := r + g[i]
		blk[i] = v
		a := math.Abs(v)
		s += a
		s2 += a * a
	}
	return [3]float64{s, s2}
}

// shiftedKernel: Σ(x-c) and Σ(x-c)².
func shiftedKernel(blk, _ []float64, c float64) [3]float64 {
	s, s2 := 0.0, 0.0
	for _, x := range blk {
		d := x - c
		s += d
		s2 += d * d
	}
	return [3]float64{s, s2}
}

const (
	absMask  = 1<<63 - 1
	mantMask = 1<<52 - 1
	expBias  = 1023
	// logSub is how many mantissas one product absorbs before its
	// logarithm is taken: two accumulators of at most 256 factors in
	// [1, 2) each, so their product stays below 2^512.
	logSub = 512
)

// gammaKernel: Σ|x|, Σ log|x| over the non-zero entries, and their count
// — the gamma sufficient statistics — without a logarithm per element.
// A normal |x| is m·2^e with m in [1, 2), so Σ log|x| =
// ln2·Σe + Σ log(Π m): the exponents add exactly as integers and the
// mantissas multiply, logSub at a time, into two independent
// accumulators (the multiply latency overlaps), leaving one math.Log per
// logSub elements. Zeros are skipped; subnormals, ±Inf and NaN take
// math.Log directly. Σ|x| adds in absKernel's order, so the mean is
// bit-identical to MeanAbs. Sub-block bounds and accumulator turns
// depend only on the block's contents, never on who computes it.
//
//sidco:hotpath
func gammaKernel(blk, g []float64, _ float64) [3]float64 {
	abs, logs := 0.0, 0.0
	exp, n := 0, 0
	for len(blk) > 0 {
		sub := blk[:min(logSub, len(blk))]
		blk = blk[len(sub):]
		p0, p1 := 1.0, 1.0
		if g == nil {
			for _, x := range sub {
				b := math.Float64bits(x) & absMask
				a := math.Float64frombits(b)
				abs += a
				e := b >> 52
				if e-1 >= 2*expBias { // zero or subnormal (e = 0), Inf or NaN (e = 2047)
					if b != 0 {
						logs += math.Log(a)
						n++
					}
					continue
				}
				p0, p1 = p1, p0*math.Float64frombits(b&mantMask|expBias<<52)
				exp += int(e) - expBias
				n++
			}
		} else {
			for i, x := range g[:len(sub)] {
				v := sub[i] + x
				sub[i] = v
				b := math.Float64bits(v) & absMask
				a := math.Float64frombits(b)
				abs += a
				e := b >> 52
				if e-1 >= 2*expBias {
					if b != 0 {
						logs += math.Log(a)
						n++
					}
					continue
				}
				p0, p1 = p1, p0*math.Float64frombits(b&mantMask|expBias<<52)
				exp += int(e) - expBias
				n++
			}
			g = g[len(sub):]
		}
		logs += math.Log(p0 * p1)
	}
	return [3]float64{abs, math.Ln2*float64(exp) + logs, float64(n)}
}

// meanVar turns Σv, Σv² and the count into the mean and the population
// variance, clamped at zero against catastrophic cancellation.
func meanVar(sum, sumSq, n float64) (mean, variance float64) {
	mean = sum / n
	variance = sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 { return reduce(xs, nil, sumKernel, 0)[0] / float64(len(xs)) }

// Variance returns the population variance (divide by n) of xs, matching
// the moment estimators used in the paper's closed-form fitters. It returns
// NaN for empty input.
func Variance(xs []float64) float64 {
	return reduce(xs, nil, shiftedKernel, Mean(xs))[1] / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (divide by n-1) of
// xs, or NaN when fewer than two observations are supplied.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanAbs returns the mean of |x| over xs — the maximum-likelihood scale
// estimate for Laplace-distributed data (Corollary 1.1). It returns NaN for
// empty input.
func MeanAbs(xs []float64) float64 { return AccumulateMeanAbs(xs, nil) }

// MeanVarAbs returns the mean and population variance of |x| over xs in a
// single pass — the two moments the GP moment-matching fitter consumes.
func MeanVarAbs(xs []float64) (mean, variance float64) { return AccumulateMeanVarAbs(xs, nil) }

// GammaMoments returns, from one pass over xs, the mean of |x| (bit-equal
// to MeanAbs) and the mean of log|x| over the non-zero entries — the two
// moments behind the sufficient statistic s = log(mean) - mean(log) of
// the Minka gamma fitter. Entries equal to zero are skipped in the
// log-mean (log 0 would poison the sum; in SIDCo they correspond to
// exactly-zero gradients, which carry no shape information): it is NaN if
// all entries are zero or xs is empty.
func GammaMoments(xs []float64) (meanAbs, meanLogAbs float64) {
	return AccumulateGammaMoments(xs, nil)
}

// AccumulateMeanAbs adds g into acc (acc[i] += g[i]; a nil g adds nothing)
// and returns MeanAbs of the sum in the same sweep: acc and the mean are
// bit-equal to adding first and calling MeanAbs(acc) after.
func AccumulateMeanAbs(acc, g []float64) float64 {
	return reduce(acc, g, absKernel, 0)[0] / float64(len(acc))
}

// AccumulateMeanVarAbs is AccumulateMeanAbs for MeanVarAbs.
func AccumulateMeanVarAbs(acc, g []float64) (mean, variance float64) {
	s := reduce(acc, g, absSqKernel, 0)
	return meanVar(s[0], s[1], float64(len(acc)))
}

// AccumulateGammaMoments is AccumulateMeanAbs for GammaMoments.
func AccumulateGammaMoments(acc, g []float64) (meanAbs, meanLogAbs float64) {
	s := reduce(acc, g, gammaKernel, 0)
	// s[2] counts the non-zero entries: 0/0 is the all-zero NaN.
	return s[0] / float64(len(acc)), s[1] / s[2]
}

// MinMax returns the minimum and maximum of xs, or (NaN, NaN) for empty
// input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// MaxAbs returns the largest absolute value in xs, or NaN for empty input.
func MaxAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	max := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default). The
// input need not be sorted; a copy is sorted internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for data already sorted ascending; it does
// not allocate.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Kurtosis returns the excess kurtosis of xs (zero for a Gaussian), used
// by tests and the SID-selection ablation to characterise gradient tails.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	m2, m4 := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return math.NaN()
	}
	return m4/(m2*m2) - 3
}
