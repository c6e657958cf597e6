package tensor

import (
	"math"

	"repro/internal/par"
)

// Par runs the threshold passes (count / filter / exceedance gather)
// across P goroutines over fixed contiguous index ranges, merging
// per-worker results in worker order so every output is bit-identical
// to the serial functions. The zero value (P <= 1) delegates straight
// to the serial passes with no overhead; each compressor instance owns
// one (Par is not concurrency-safe from the outside).
type Par struct {
	P      int
	counts []int
	idx    [][]int32
	vals   [][]float64
	excess []Excess
}

// parMin is the input size below which fork-join overhead exceeds the
// pass itself; smaller inputs always take the serial path (which is
// bit-identical anyway).
const parMin = 1 << 14

func (pp *Par) grow(p int) {
	if len(pp.counts) < p {
		pp.counts = append(pp.counts, make([]int, p-len(pp.counts))...)
	}
	for len(pp.idx) < p {
		pp.idx = append(pp.idx, nil)
	}
	for len(pp.vals) < p {
		pp.vals = append(pp.vals, nil)
	}
}

// CountAbove is CountAboveThreshold at parallelism P: per-range counts
// are integers, so their sum is exactly the serial count.
func (pp *Par) CountAbove(x []float64, eta float64) int {
	p := pp.P
	if p <= 1 || len(x) < parMin {
		return CountAboveThreshold(x, eta)
	}
	pp.grow(p)
	par.Do(p, func(w int) {
		lo, hi := par.RangeBounds(len(x), p, w)
		pp.counts[w] = CountAboveThreshold(x[lo:hi], eta)
	})
	n := 0
	for _, c := range pp.counts[:p] {
		n += c
	}
	return n
}

// FilterAbove is FilterAboveThreshold at parallelism P: workers filter
// their own ranges into private pair lists, which concatenate in worker
// order — exactly the ascending-index output of the serial pass.
func (pp *Par) FilterAbove(x []float64, eta float64, idx []int32, vals []float64) ([]int32, []float64) {
	p := pp.P
	if p <= 1 || len(x) < parMin {
		return FilterAboveThreshold(x, eta, idx, vals)
	}
	pp.grow(p)
	par.Do(p, func(w int) {
		lo, hi := par.RangeBounds(len(x), p, w)
		widx, wvals := pp.idx[w][:0], pp.vals[w][:0]
		for i := lo; i < hi; i++ {
			if math.Abs(x[i]) >= eta {
				widx = append(widx, int32(i))
				wvals = append(wvals, x[i])
			}
		}
		pp.idx[w], pp.vals[w] = widx, wvals
	})
	for w := 0; w < p; w++ {
		idx = append(idx, pp.idx[w]...)
		vals = append(vals, pp.vals[w]...)
	}
	return idx, vals
}

// PairsAbove is PairsAboveThreshold(x, eta, 0, ...) at parallelism P.
// Workers own whole gather blocks and store each block's excess moments
// apart, so the sums add in block order as the serial pass adds them.
func (pp *Par) PairsAbove(x []float64, eta float64, mags []float64, idx []int32) ([]float64, []int32, Excess) {
	p := pp.P
	if p <= 1 || len(x) < parMin {
		return PairsAboveThreshold(x, eta, 0, mags, idx)
	}
	pp.grow(p)
	blocks := (len(x) + gatherBlock - 1) / gatherBlock
	if cap(pp.excess) < blocks {
		pp.excess = make([]Excess, blocks)
	}
	parts := pp.excess[:blocks]
	par.Do(p, func(w int) {
		lo, hi := par.RangeBounds(blocks, p, w)
		wm, wi := pp.vals[w][:0], pp.idx[w][:0]
		for b := lo; b < hi; b++ {
			off := b * gatherBlock
			wm, wi, parts[b] = PairsAboveThreshold(x[off:min(off+gatherBlock, len(x))], eta, int32(off), wm, wi)
		}
		pp.vals[w], pp.idx[w] = wm, wi
	})
	for w := 0; w < p; w++ {
		mags = append(mags, pp.vals[w]...)
		idx = append(idx, pp.idx[w]...)
	}
	var ex Excess
	for _, part := range parts {
		ex.Sum += part.Sum
		ex.SumSq += part.SumSq
	}
	return mags, idx, ex
}
