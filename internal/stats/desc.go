package stats

import (
	"math"
	"sort"
)

// sumBlock is the fixed accumulation granularity of every mean/variance
// reduction in this package: each 4096-element block is one add chain
// per sum, started at 0.0 and run in element order, and the block
// partials are combined in block order. The grouping is part of every
// result's bits, and through the thresholds of every selection: changing
// it, or the order inside a block, moves run digests and golden losses.
// The chain is serial only inside a block, so blocks may be summed side
// by side (absSum, gammaSum) as long as their partials still add in
// block order.
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
			s2 += float64(a * a)
		}
		return [3]float64{s, s2}
	}
	for i, r := range blk[:len(g)] {
		v := r + g[i]
		blk[i] = v
		a := math.Abs(v)
		s += a
		s2 += float64(a * a)
	}
	return [3]float64{s, s2}
}

// shiftedKernel: Σ(x-c) and Σ(x-c)².
func shiftedKernel(blk, _ []float64, c float64) [3]float64 {
	s, s2 := 0.0, 0.0
	for _, x := range blk {
		d := x - c
		s += d
		s2 += float64(d * d)
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
// depend only on the block's contents, never on who computes it: the
// AVX2 body runs what it can of a sub-block and gammaLoop the rest, onto
// the same state (package doc).
//
//sidco:hotpath
func gammaKernel(blk, g []float64, _ float64) [3]float64 {
	var s gammaState
	for lo := 0; lo < len(blk); lo += logSub {
		hi := min(lo+logSub, len(blk))
		s.p0, s.p1 = 1, 1
		for i := lo; i < hi; {
			var k int
			s, k = gammaSweep(blk[i:hi], window(g, i, hi), s)
			if i += k; i < hi {
				// The group the AVX2 body stopped at, or the last len%4.
				j := min(i+4, hi)
				s, _ = gammaLoop(blk[i:j], window(g, i, j), s)
				i = j
			}
		}
		s.logs += math.Log(s.p0 * s.p1)
	}
	return [3]float64{s.abs, float64(math.Ln2*float64(s.exp)) + s.logs, float64(s.n)}
}

// gammaState is gammaKernel's running state. The field order is read by
// gamma_amd64.s.
type gammaState struct {
	abs    float64 // Σ|x|, in element order
	p0, p1 float64 // the sub-block's mantissa products; p0 takes the next normal
	exp, n int     // Σ(e - expBias) over the normals; the non-zero count
	logs   float64 // the logarithms taken so far
}

// gammaSweep is what gammaKernel hands a sub-block's elements: gammaLoop,
// or the AVX2 body when gamma_amd64.go's init finds the CPU and OS support
// it. Either returns the state after the first k elements, and k.
var gammaSweep = gammaLoop

// gammaQuadSweep is the four-block body gammaQuad drives
// (gammaQuadAVX2), or nil where gamma_amd64.go's init finds none.
var gammaQuadSweep func(blk, g []float64, n int, s [4]gammaState) ([4]gammaState, int, int)

// gammaLoop is gammaKernel's element loop over sub (when g is not nil,
// v = sub[i] + g[i] is stored back first and reduced in place of sub[i]):
// the path on a machine without AVX2 and the oracle of the AVX2 body. It
// runs all of sub, so k = len(sub).
//
//sidco:hotpath
func gammaLoop(sub, g []float64, s gammaState) (gammaState, int) {
	abs, logs, p0, p1 := s.abs, s.logs, s.p0, s.p1
	exp, n := s.exp, s.n
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
	}
	return gammaState{abs, p0, p1, exp, n, logs}, len(sub)
}

// window is g[i:j], or nil for a nil g (no second vector).
func window(g []float64, i, j int) []float64 {
	if g == nil {
		return nil
	}
	return g[i:j]
}

// meanVar turns Σv, Σv² and the count into the mean and the population
// variance, clamped at zero against catastrophic cancellation.
func meanVar(sum, sumSq, n float64) (mean, variance float64) {
	mean = sum / n
	variance = sumSq/n - float64(mean*mean)
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
	return absSum(acc, g) / float64(len(acc))
}

// absSum is reduce(acc, g, absKernel, 0)[0], acc += g included when g is
// not nil, bit for bit, four blocks at a time: absQuadSweep (absReadSweep
// without g, which only reads acc) runs four consecutive blocks' chains
// side by side, each from 0.0 in its own element order, and their partials
// add to the total in block order. One chain waits on the adder's latency;
// four keep it busy and keep four streams in flight. The last
// len%(4·sumBlock) elements go block by block through absKernel.
//
// It has a second producer, bit for bit: AbsPartials.Total, whose covered
// blocks' chains the code that wrote the vector summed as it stored each
// value (Dense's backward on error feedback's residual, four blocks a
// call), and whose other blocks it sums with these kernels.
//
//sidco:hotpath
func absSum(acc, g []float64) float64 {
	if g != nil {
		g = g[:len(acc)]
	}
	total, lo := 0.0, 0
	for ; len(acc)-lo >= 4*sumBlock; lo += 4 * sumBlock {
		var s0, s1, s2, s3 float64
		if g == nil {
			s0, s1, s2, s3 = absReadSweep(acc[lo:])
		} else {
			s0, s1, s2, s3 = absQuadSweep(acc[lo:], g[lo:])
		}
		total += s0
		total += s1
		total += s2
		total += s3
	}
	for ; lo < len(acc); lo += sumBlock {
		hi := min(lo+sumBlock, len(acc))
		total += absKernel(acc[lo:hi], window(g, lo, hi), 0)[0]
	}
	return total
}

// absQuadSweep and absReadSweep are absSum's four-block bodies with and
// without g: absQuad and absRead, or absQuadAVX2 and absReadAVX2 when
// abs_amd64.go's init finds the CPU and OS support AVX2.
var (
	absQuadSweep = absQuad
	absReadSweep = absRead
)

// absQuad is absKernel with g over the first four blocks of blk, one
// accumulator and one named block per chain (an array of
// accumulators spills to the stack): the path on a machine without AVX2
// and the oracle of the AVX2 body.
//
//sidco:hotpath
func absQuad(blk, g []float64) (s0, s1, s2, s3 float64) {
	b0, b1 := (*[sumBlock]float64)(blk), (*[sumBlock]float64)(blk[sumBlock:])
	b2, b3 := (*[sumBlock]float64)(blk[2*sumBlock:]), (*[sumBlock]float64)(blk[3*sumBlock:])
	g0, g1 := (*[sumBlock]float64)(g), (*[sumBlock]float64)(g[sumBlock:])
	g2, g3 := (*[sumBlock]float64)(g[2*sumBlock:]), (*[sumBlock]float64)(g[3*sumBlock:])
	for i := range b0 {
		v0, v1, v2, v3 := b0[i]+g0[i], b1[i]+g1[i], b2[i]+g2[i], b3[i]+g3[i]
		b0[i], b1[i], b2[i], b3[i] = v0, v1, v2, v3
		s0 += math.Abs(v0)
		s1 += math.Abs(v1)
		s2 += math.Abs(v2)
		s3 += math.Abs(v3)
	}
	return s0, s1, s2, s3
}

// absRead is absQuad without g: Σ|x| over the first four blocks of blk,
// which it only reads, one chain per block — error feedback's first sweep
// when the gradient was added into acc before it (the path on a machine
// without AVX2 and the oracle of the AVX2 body).
//
//sidco:hotpath
func absRead(blk []float64) (s0, s1, s2, s3 float64) {
	b0, b1 := (*[sumBlock]float64)(blk), (*[sumBlock]float64)(blk[sumBlock:])
	b2, b3 := (*[sumBlock]float64)(blk[2*sumBlock:]), (*[sumBlock]float64)(blk[3*sumBlock:])
	for i := range b0 {
		s0 += math.Abs(b0[i])
		s1 += math.Abs(b1[i])
		s2 += math.Abs(b2[i])
		s3 += math.Abs(b3[i])
	}
	return s0, s1, s2, s3
}

// AccumulateMeanVarAbs is AccumulateMeanAbs for MeanVarAbs.
func AccumulateMeanVarAbs(acc, g []float64) (mean, variance float64) {
	s := reduce(acc, g, absSqKernel, 0)
	return meanVar(s[0], s[1], float64(len(acc)))
}

// AccumulateGammaMoments is AccumulateMeanAbs for GammaMoments.
func AccumulateGammaMoments(acc, g []float64) (meanAbs, meanLogAbs float64) {
	s := gammaSum(acc, g)
	// s[2] counts the non-zero entries: 0/0 is the all-zero NaN.
	return s[0] / float64(len(acc)), s[1] / s[2]
}

// gammaSum is reduce(xs, g, gammaKernel, 0), xs += g included, bit for
// bit. Where there is a four-block body (gammaQuadSweep), gammaQuad runs
// four consecutive blocks side by side and their partials add to the
// total in block order; the last len%(4·sumBlock) elements, and all of
// them where there is no such body, go block by block through
// gammaKernel.
//
//sidco:hotpath
func gammaSum(xs, g []float64) (total [3]float64) {
	lo := 0
	if gammaQuadSweep != nil {
		for ; len(xs)-lo >= 4*sumBlock; lo += 4 * sumBlock {
			for _, p := range gammaQuad(xs[lo:lo+4*sumBlock], window(g, lo, lo+4*sumBlock)) {
				for i := range total {
					total[i] += p[i]
				}
			}
		}
	}
	for ; lo < len(xs); lo += sumBlock {
		hi := min(lo+sumBlock, len(xs))
		p := gammaKernel(xs[lo:hi], window(g, lo, hi), 0)
		for i := range total {
			total[i] += p[i]
		}
	}
	return total
}

// gammaQuad is gammaKernel over the four blocks of blk (and g), each onto
// its own state: the same sub-blocks, turns and one math.Log per
// sub-block, which coincide across the blocks because each is sumBlock
// long. gammaQuadSweep runs the four side by side; the group index it
// stops at goes through gammaLoop for the blocks that have not run it,
// and the sweep resumes after it.
//
//sidco:hotpath
func gammaQuad(blk, g []float64) (p [4][3]float64) {
	var s [4]gammaState
	for lo := 0; lo < sumBlock; lo += logSub {
		hi := lo + logSub
		for b := range s {
			s[b].p0, s[b].p1 = 1, 1
		}
		for i := lo; i < hi; {
			var k, stop int
			s, k, stop = gammaQuadSweep(blk[i:], window(g, i, len(blk)), hi-i, s)
			if i += k; i < hi {
				for b := stop; b < len(s); b++ {
					j := b*sumBlock + i
					s[b], _ = gammaLoop(blk[j:j+4], window(g, j, j+4), s[b])
				}
				i += 4
			}
		}
		for b := range s {
			s[b].logs += math.Log(s[b].p0 * s[b].p1)
		}
	}
	for b, sb := range s {
		p[b] = [3]float64{sb.abs, float64(math.Ln2*float64(sb.exp)) + sb.logs, float64(sb.n)}
	}
	return p
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
//
//sidco:oracle the allocating reference QuantileSorted is tested against
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
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}
