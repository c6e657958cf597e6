package stats

// SumBlock is the block every Σ chain of this package covers, sumBlock:
// a producer of AbsPartials covers whole blocks of it.
const SumBlock = sumBlock

// AbsPartials is Σ|v| of a vector kept block by block, by the code that
// writes the vector, so that the sum needs no sweep of its own: a
// producer that stores every value of some whole sumBlocks can add |v|
// into those blocks' chains as it stores, each chain from +0 in element
// order — what absSum's chains compute — and Total sums only the blocks it
// did not cover. Dense's backward is such a producer (nn.BindGradsAdding
// with partials): it covers four consecutive blocks at a time of every
// weight matrix whose rows tile them.
//
// The partials describe the vector as the producer left it. Anything else
// that writes the vector must Reset them (or Forget its span) first.
type AbsPartials struct {
	sums    []float64 // block b's chain, where covered[b]
	covered []bool
}

// Reset readies p for a vector of n elements with no block covered; it
// allocates only when n has more blocks than any Reset before.
func (p *AbsPartials) Reset(n int) {
	nb := (n + sumBlock - 1) / sumBlock
	if cap(p.sums) < nb {
		p.sums, p.covered = make([]float64, nb), make([]bool, nb) //sidco:alloc first Reset for a dimension, not steady state
	}
	p.sums, p.covered = p.sums[:nb], p.covered[:nb]
	clear(p.covered)
}

// Quad marks blocks b…b+3 covered and returns their four chains, each set
// to +0, for the producer to add |v| of every value it stores in those
// blocks into, in element order: chain i is block b+i's.
func (p *AbsPartials) Quad(b int) *[4]float64 {
	c := (*[4]float64)(p.sums[b : b+4])
	*c = [4]float64{}
	for i := range 4 {
		p.covered[b+i] = true
	}
	return c
}

// Forget marks every block that holds an element of [lo, hi) uncovered: a
// writer other than the producer changed values there.
func (p *AbsPartials) Forget(lo, hi int) {
	if lo >= hi {
		return
	}
	for b := lo / sumBlock; b <= (hi-1)/sumBlock && b < len(p.covered); b++ {
		p.covered[b] = false
	}
}

// Total returns Σ|v| over v bit for bit as absSum(v, nil) — the first
// sweep of AccumulateMeanAbs(v, nil) — from the covered blocks' chains and
// the uncovered blocks' sums, which it computes with absSum's kernels: four
// uncovered whole blocks in a row through its four-block body, any other
// one on its own. The partials add in block order. Partials Reset for
// another length than v's cover nothing.
//
//sidco:hotpath
func (p *AbsPartials) Total(v []float64) float64 {
	nb := (len(v) + sumBlock - 1) / sumBlock
	if len(p.covered) != nb {
		return absSum(v, nil)
	}
	total := 0.0
	for b := 0; b < nb; {
		lo := b * sumBlock
		if b+4 <= nb && len(v)-lo >= 4*sumBlock && !p.covered[b] && !p.covered[b+1] && !p.covered[b+2] && !p.covered[b+3] {
			s0, s1, s2, s3 := absReadSweep(v[lo:])
			total += s0
			total += s1
			total += s2
			total += s3
			b += 4
			continue
		}
		if p.covered[b] {
			total += p.sums[b]
		} else {
			total += absKernel(v[lo:min(lo+sumBlock, len(v))], nil, 0)[0]
		}
		b++
	}
	return total
}

// Chain returns block b's chain and whether a producer covered it.
//
//sidco:oracle the per-block view the producers' tests hold each chain to absKernel with
func (p *AbsPartials) Chain(b int) (sum float64, covered bool) {
	return p.sums[b], p.covered[b]
}
