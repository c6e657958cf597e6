package tensor

import (
	"math"
	"sort"
)

// Selector carries the scratch of the radix top-k selection — the 64K
// first-digit histogram, the candidate-bit buffer, the quickselect |g|
// copy for small inputs and the cutoff-tie side lists — so steady-state
// selections allocate nothing. The zero value is ready; each compressor
// instance owns one (Selector is not concurrency-safe, and every pass runs
// on the calling goroutine).
type Selector struct {
	counts  []int
	cands   []uint64
	abs     []float64
	tieIdx  []int32
	tieVals []float64
}

// TopKSelect returns the indices and values of the k elements of g with
// the largest absolute value, using an O(d) byte-wise radix select over
// the IEEE-754 bit patterns to find the magnitude cutoff followed by a
// filtering pass. Ties at the cutoff are broken by index order so exactly
// k elements are returned (or all of them when k >= len(g)). The returned
// indices are ascending.
//
// This is the exact Top-k operator T_k of Definition 1 and the reference
// against which every threshold estimator is judged. It allocates its
// scratch per call; hot paths hold a Selector and use TopKInto.
func TopKSelect(g []float64, k int) (idx []int32, vals []float64) {
	var sel Selector
	s := &Sparse{}
	sel.TopKInto(s, g, k)
	if s.NNZ() == 0 {
		return nil, nil
	}
	return s.Idx, s.Vals
}

// TopKInto appends the exact top-k selection of g to dst (which the
// caller typically Resets first), reusing the Selector's scratch. The
// selection — cutoff, tie-breaking, output order — is identical to
// TopKSelect's.
//
//sidco:hotpath
func (sel *Selector) TopKInto(dst *Sparse, g []float64, k int) {
	d := len(g)
	if k <= 0 || d == 0 {
		return
	}
	if k >= d {
		dst.Grow(len(dst.Idx) + d)
		for i, gi := range g {
			dst.Append(int32(i), gi)
		}
		return
	}

	cutoff := sel.AbsKth(g, k) // k-th largest magnitude

	dst.Grow(len(dst.Idx) + k)
	base := len(dst.Idx)
	// One pass: keep everything strictly above the cutoff (guaranteed
	// < k elements) and stash the cutoff-magnitude ties on the side, so
	// the tie fill never needs a second scan of g. Magnitude compares run
	// on the masked bit patterns (order-isomorphic for non-negative
	// floats), keeping the loop branch-cheap.
	cb := math.Float64bits(cutoff)
	tieIdx, tieVals := sel.tieIdx[:0], sel.tieVals[:0]
	for i, gi := range g {
		bits := math.Float64bits(gi) & absMask
		if bits > cb {
			dst.Append(int32(i), gi)
		} else if bits == cb && len(tieIdx) < k {
			// At most k ties can be kept (need = k - len(idx) <= k), so
			// capping here bounds the temporaries at O(k) even when the
			// cutoff magnitude is shared by most of g (e.g. a mostly-zero
			// gradient).
			tieIdx = append(tieIdx, int32(i))
			tieVals = append(tieVals, gi)
		}
	}
	sel.tieIdx, sel.tieVals = tieIdx, tieVals
	// Fill the remainder with the lowest-index ties, merging the two
	// ascending lists in place from the back.
	if need := k - (len(dst.Idx) - base); need > 0 {
		mergeTiesInPlace(dst, base, sel.tieIdx[:need], sel.tieVals[:need])
	}
}

// mergeTiesInPlace merges the ascending tie list into dst[base:], itself
// ascending, walking backwards so no temporary output list is needed.
func mergeTiesInPlace(dst *Sparse, base int, tieIdx []int32, tieVals []float64) {
	na := len(dst.Idx) - base
	nb := len(tieIdx)
	dst.Grow(base + na + nb)
	dst.Idx = dst.Idx[:base+na+nb]
	dst.Vals = dst.Vals[:base+na+nb]
	i, j, w := base+na-1, nb-1, base+na+nb-1
	for j >= 0 {
		if i >= base && dst.Idx[i] > tieIdx[j] {
			dst.Idx[w], dst.Vals[w] = dst.Idx[i], dst.Vals[i]
			i--
		} else {
			dst.Idx[w], dst.Vals[w] = tieIdx[j], tieVals[j]
			j--
		}
		w--
	}
}

// QuickSelectKth returns the k-th largest value of xs (k is 1-based:
// k=1 returns the maximum). It partially reorders xs in place; pass a copy
// if the original order matters. It panics if k is out of range.
//
// The pivot is chosen by median-of-three, giving expected linear time on
// the heavy-tailed magnitude vectors gradients produce.
func QuickSelectKth(xs []float64, k int) float64 {
	if k < 1 || k > len(xs) {
		panic("tensor: QuickSelectKth k out of range")
	}
	// Select the element with descending rank k, i.e. ascending index
	// len(xs)-k.
	target := len(xs) - k
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case p == target:
			return xs[p]
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return xs[target]
}

// partition performs Lomuto partition around a median-of-three pivot and
// returns the pivot's final index.
func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Order xs[lo] <= xs[mid] <= xs[hi], then use xs[mid] as the pivot by
	// stashing it at hi-1... simpler: move median to hi.
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	xs[mid], xs[hi] = xs[hi], xs[mid]
	pivot := xs[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

// TopKThreshold returns the magnitude of the k-th largest |g_i| — the
// oracle threshold a perfect estimator would produce. It does not modify
// g.
func TopKThreshold(g []float64, k int) float64 {
	if k <= 0 || len(g) == 0 {
		return math.Inf(1)
	}
	if k >= len(g) {
		return 0
	}
	return RadixSelectAbsKth(g, k)
}

// absMask clears the sign bit of a float64 bit pattern. For non-negative
// floats the uint64 patterns order identically to the values, so |g_i|
// comparisons reduce to integer comparisons on masked bits.
const absMask = ^uint64(0) >> 1

// RadixSelectAbsKth returns the k-th largest |g_i| (k is 1-based: k=1
// returns the max magnitude) without modifying g, allocating fresh
// scratch per call. Hot paths hold a Selector and use AbsKth.
func RadixSelectAbsKth(g []float64, k int) float64 {
	var sel Selector
	return sel.AbsKth(g, k)
}

// AbsKth returns the k-th largest |g_i| (k is 1-based: k=1 returns the
// max magnitude) without modifying g. It runs a most-
// significant-byte-first radix select over the masked IEEE-754 bit
// patterns: one counting pass over all of g, one gather of the candidate
// bucket, then counting passes over geometrically shrinking candidate
// sets. Unlike quickselect it is swap-free, scratch is reused across
// calls, and the running time is O(d) worst case — on 1M-element
// gradients it is ~5x faster than median-of-three quickselect.
// It panics if k is out of range.
func (sel *Selector) AbsKth(g []float64, k int) float64 {
	if k < 1 || k > len(g) {
		panic("tensor: RadixSelectAbsKth k out of range")
	}
	if len(g) < radixMin {
		abs := append(sel.abs[:0], g...)
		for i, gi := range abs {
			abs[i] = math.Abs(gi)
		}
		sel.abs = abs
		return QuickSelectKth(abs, k)
	}
	// Level 0 counts the top 16 bits (sign cleared: the full 11-bit
	// exponent plus 5 mantissa bits) directly over g, avoiding a d-sized
	// |g| copy. A byte-wide first digit is too coarse for gradients —
	// heavy-tailed magnitudes concentrate within a few binades, which all
	// share one top byte — while 16 bits splits every binade 32 ways.
	if sel.counts == nil {
		sel.counts = make([]int, 1<<16)
	}
	counts := sel.counts
	for _, gi := range g {
		counts[(math.Float64bits(gi)&absMask)>>48]++
	}
	chosen, rem := pickBucket16(counts, k)
	bucketLen := counts[chosen]
	// The histogram is cleared before the next phase so the Selector is
	// reusable; a 512 KiB memclr is noise next to the counting pass.
	clear(counts)
	if cap(sel.cands) < bucketLen {
		sel.cands = make([]uint64, 0, bucketLen)
	}
	cands := sel.cands[:0]
	for _, gi := range g {
		bits := math.Float64bits(gi) & absMask
		if bits>>48 == chosen {
			cands = append(cands, bits)
		}
	}
	return sel.refine(cands, rem)
}

// Below this size the 64K-bucket histogram costs more than the
// selection; quickselect on an |g| copy wins.
const radixMin = 1 << 14

// refine walks the remaining 8-bit digits of the candidate set (the set
// shrinks geometrically, so this is never the hot pass) and returns the
// k-th largest magnitude.
func (sel *Selector) refine(cands []uint64, k int) float64 {
	for shift := 40; shift >= 0 && len(cands) > 1; shift -= 8 {
		var c [256]int
		for _, b := range cands {
			c[byte(b>>uint(shift))]++
		}
		ch, rem := pickBucket(&c, k)
		k = rem
		// In-place filter: the write index never outruns the read index.
		out := cands[:0]
		for _, b := range cands {
			if byte(b>>uint(shift)) == ch {
				out = append(out, b)
			}
		}
		cands = out
	}
	// Either one candidate remains or all surviving candidates share
	// every byte and are equal.
	kth := math.Float64frombits(cands[0])
	sel.cands = cands[:0]
	return kth
}

// pickBucket walks bucket counts from high byte value to low and returns
// the bucket containing the k-th largest element together with k's
// residual rank inside that bucket.
func pickBucket(counts *[256]int, k int) (byte, int) {
	for b := 255; b >= 0; b-- {
		if counts[b] >= k {
			return byte(b), k
		}
		k -= counts[b]
	}
	panic("tensor: radix bucket walk exhausted") // unreachable: sum(counts) >= k
}

// pickBucket16 is pickBucket for the 16-bit first digit.
func pickBucket16(counts []int, k int) (uint64, int) {
	for b := len(counts) - 1; b >= 0; b-- {
		if counts[b] >= k {
			return uint64(b), k
		}
		k -= counts[b]
	}
	panic("tensor: radix bucket walk exhausted") // unreachable: sum(counts) >= k
}

// TopKSort is a sort-based O(d log d) top-k, the differential-testing
// oracle for the radix selection. Indices are returned in ascending order.
//
//sidco:oracle the reference selection TopKInto is tested against
func TopKSort(g []float64, k int) (idx []int32, vals []float64) {
	d := len(g)
	if k <= 0 || d == 0 {
		return nil, nil
	}
	if k > d {
		k = d
	}
	order := make([]int32, d)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(g[order[a]]) > math.Abs(g[order[b]])
	})
	top := order[:k]
	sort.Slice(top, func(a, b int) bool { return top[a] < top[b] })
	idx = make([]int32, k)
	vals = make([]float64, k)
	for i, j := range top {
		idx[i] = j
		vals[i] = g[j]
	}
	return idx, vals
}

// SortedAbsDescending returns |g| sorted in descending order — the
// compressibility diagnostic vector of Figure 7a.
func SortedAbsDescending(g []float64) []float64 {
	abs := make([]float64, len(g))
	for i, gi := range g {
		abs[i] = math.Abs(gi)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
	return abs
}
