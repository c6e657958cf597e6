package tensor

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Selector carries the scratch of the radix top-k selection — the
// first-digit histogram (the top 16 bits of |x|, whose sign bit is clear:
// 32K counts) and the candidate-bit buffer the cutoff is refined in (for
// small inputs, the bit copy quickselect reorders) — so
// steady-state selections allocate nothing. The zero value is ready; each
// compressor instance owns one (Selector is not concurrency-safe, and
// every pass runs on the calling goroutine).
type Selector struct {
	counts *[1 << 15]int32
	cands  []uint64
}

// TopKSelect returns the indices and values of the k elements of g with
// the largest absolute value (TopKAccumulateInto's selection). Ties at the
// cutoff are broken by index order so exactly k elements are returned (or
// all of them when k >= len(g)). The returned indices are ascending.
//
// This is the exact Top-k operator T_k of Definition 1 and the reference
// against which every threshold estimator is judged. It allocates its
// scratch per call; hot paths hold a Selector and use TopKAccumulateInto.
func TopKSelect(g []float64, k int) (idx []int32, vals []float64) {
	var sel Selector
	s := &Sparse{}
	sel.TopKAccumulateInto(s, g, nil, k)
	if s.NNZ() == 0 {
		return nil, nil
	}
	return s.Idx, s.Vals
}

// TopKAccumulateInto appends the exact top-k selection of acc to dst
// (which the caller typically Resets first), reusing the Selector's
// scratch. With add not nil it first makes acc += add, to the bits
// Add(add, acc) leaves, whatever k is; add must have acc's length.
// Magnitudes rank on their masked bit patterns (order-isomorphic to |x|,
// a NaN above +Inf), ties at the cutoff go to the lowest indices, and the
// k pairs are appended in ascending index order with their signed values.
//
// Two passes over acc. The first counts the top 16 bits of each |x|,
// doing the add on the way. The second stores every element at or above
// the floor of the bucket the k-th largest falls in straight into dst's
// storage, branch-free: the k - rem above the bucket and the bucket
// itself. The cutoff is refined among the gathered bucket, and the run
// compacted in place to everything above it plus the lowest-index ties.
// Below radixMin a quickselect on a bit copy finds the cutoff instead of
// the histogram, and the same gather and compaction follow.
//
//sidco:hotpath
func (sel *Selector) TopKAccumulateInto(dst *Sparse, acc, add []float64, k int) {
	if add != nil && len(add) != len(acc) {
		panic("tensor: TopKAccumulateInto length mismatch")
	}
	d := len(acc)
	k = min(k, d)
	radix := d >= radixMin && k > 0
	if add != nil && !radix {
		Add(add, acc) // no histogram pass to carry it
	}
	if k <= 0 {
		return
	}
	// The gather keeps the n elements whose masked bits reach floor; rem is
	// the k-th largest's rank among those in floor's bucket.
	var floor uint64
	var n, rem int
	if radix {
		chosen, r, size := sel.histogram(acc, add, k)
		floor, n, rem = chosen<<48, k-r+size, r
	} else {
		floor, rem = sel.quickCut(acc, k), k
		for _, x := range acc {
			b := math.Float64bits(x) & absMask
			n += b2i(b >= floor)
			rem -= b2i(b > floor)
		}
	}
	base := len(dst.Idx)
	if end := base + n + gatherSlack; cap(dst.Idx) < end || cap(dst.Vals) < end {
		// The headroom absorbs the bucket's size moving from call to call.
		dst.Grow(end + n/4)
	}
	vals, idx := dst.Vals[base:base+n+gatherSlack], dst.Idx[base:base+n+gatherSlack]
	v := d &^ 7
	m := gather.atLeast(acc[:v], floor, 0, vals, idx)
	atLeast(acc[v:], floor, int32(v), vals[m:], idx[m:])
	cut := floor
	if radix {
		cut, rem = refine(sel.bucketBits(vals[:n], floor>>48, n-(k-rem)), rem)
	}
	m = keepTop(vals[:n], idx[:n], cut, rem)
	dst.Vals, dst.Idx = dst.Vals[:base+m], dst.Idx[:base+m]
}

// gatherSlack is how far past the last kept pair the top-k gather may
// store: the cursor's own slot in the Go loop, the rest of a full-width
// store of eight in the AVX-512 body (gather512_amd64.s).
const gatherSlack = 8

// atLeast is the top-k gather's Go loop: it stores each (x, base+i) of g
// at the cursor and advances the cursor when x's masked bits reach floor,
// so that it has no data-dependent branch, and returns the number kept.
// vals and idx hold every kept pair and gatherSlack slots more. It runs
// the last len%8 elements, and all of them where no assembly body does;
// it and keepTop stay out of line for the reason pairsAbove does.
//
//go:noinline
func atLeast(g []float64, floor uint64, base int32, vals []float64, idx []int32) int {
	m := 0
	for i, x := range g {
		vals[m], idx[m] = x, base+int32(i)
		m += b2i(math.Float64bits(x)&absMask >= floor)
	}
	return m
}

// keepTop compacts the run (vals, idx) in place, in order, to its
// elements above cut and the first need at it, and returns their count.
//
//go:noinline
func keepTop(vals []float64, idx []int32, cut uint64, need int) int {
	idx = idx[:len(vals)]
	w, ties := 0, 0
	for r, x := range vals {
		b := math.Float64bits(x) & absMask
		tie := b2i(b == cut)
		vals[w], idx[w] = x, idx[r]
		w += b2i(b > cut) | tie&b2i(ties < need)
		ties += tie
	}
	return w
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
	return quickSelect(xs, k)
}

// quickSelect is QuickSelectKth for k in range, over values or over the
// masked bit patterns the radix selection ranks.
func quickSelect[T float64 | uint64](xs []T, k int) T {
	// Select the element with descending rank k, i.e. ascending index
	// len(xs)-k.
	target := len(xs) - k
	lo, hi := 0, len(xs)-1
	for lo < hi {
		lt, gt := partition(xs, lo, hi)
		switch {
		case target < lt:
			hi = lt - 1
		case target > gt:
			lo = gt + 1
		default:
			return xs[target]
		}
	}
	return xs[target]
}

// partition splits xs[lo..hi] three ways around a median-of-three pivot
// — below it, equal to it, above it — and returns the bounds lt, gt of
// the equal run. Equal keys end the search, so a vector of ties (a
// mostly-zero gradient) costs one pass, not the quadratic walk a two-way
// partition makes of it.
func partition[T float64 | uint64](xs []T, lo, hi int) (lt, gt int) {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	lt, gt = lo, hi
	for i := lo; i <= gt; {
		switch {
		case xs[i] < pivot:
			xs[lt], xs[i] = xs[i], xs[lt]
			lt++
			i++
		case pivot < xs[i]:
			xs[i], xs[gt] = xs[gt], xs[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
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
// max magnitude) without modifying g, ranking the masked IEEE-754 bit
// patterns as TopKAccumulateInto does. It runs a most-significant-digit-
// first radix select: one counting pass over all of g, one gather of the
// candidate bucket, then counting passes over geometrically shrinking
// candidate sets. Unlike quickselect it is swap-free, scratch is reused
// across calls, and the running time is O(d) worst case — on 1M-element
// gradients it is ~5x faster than median-of-three quickselect. Below
// radixMin it quickselects a bit copy. It panics if k is out of range.
func (sel *Selector) AbsKth(g []float64, k int) float64 {
	if k < 1 || k > len(g) {
		panic("tensor: RadixSelectAbsKth k out of range")
	}
	if len(g) < radixMin {
		return math.Float64frombits(sel.quickCut(g, k))
	}
	chosen, rem, size := sel.histogram(g, nil, k)
	cut, _ := refine(sel.bucketBits(g, chosen, size), rem)
	return math.Float64frombits(cut)
}

// Below this size the histogram costs more than the selection;
// quickselect on a bit copy wins.
const radixMin = 1 << 14

// quickCut returns the k-th largest masked bit pattern of g by
// quickselect over a copy of the patterns in sel.cands.
func (sel *Selector) quickCut(g []float64, k int) uint64 {
	bits := sel.cands[:0]
	for _, x := range g {
		bits = append(bits, math.Float64bits(x)&absMask)
	}
	sel.cands = bits
	return quickSelect(bits, k)
}

// histogram counts the top 16 bits of each |x| of g — the full 11-bit
// exponent plus 5 mantissa bits, so that the few binades heavy-tailed
// gradients concentrate in split 32 ways each — after g += add when add
// is not nil. It returns the bucket the k-th largest falls in, k's
// residual rank inside it and the bucket's size, and leaves the
// histogram cleared for the next call (a 128 KiB memclr is noise next to
// the counting pass).
func (sel *Selector) histogram(g, add []float64, k int) (chosen uint64, rem, size int) {
	if sel.counts == nil {
		sel.counts = new([1 << 15]int32)
	}
	counts := sel.counts
	if add == nil {
		for _, x := range g {
			counts[math.Float64bits(x)>>48&(1<<15-1)]++
		}
	} else {
		add = add[:len(g)]
		for i, x := range add {
			v := g[i] + x
			g[i] = v
			counts[math.Float64bits(v)>>48&(1<<15-1)]++
		}
	}
	chosen, rem = pickBucket16(counts, k)
	size = int(counts[chosen])
	clear(counts[:])
	return chosen, rem, size
}

// bucketBits returns, in sel.cands, the masked bit patterns of the size
// elements of xs whose top 16 bits are chosen, in order, storing each at
// the cursor and advancing it on a match.
func (sel *Selector) bucketBits(xs []float64, chosen uint64, size int) []uint64 {
	if cap(sel.cands) <= size {
		// Headroom, as for the gather: the bucket's size moves from call
		// to call.
		sel.cands = make([]uint64, size+1+size/4)
	}
	out := sel.cands[:size+1]
	m := 0
	for _, x := range xs {
		b := math.Float64bits(x) & absMask
		out[m] = b
		m += b2i(b>>48 == chosen)
	}
	return out[:m]
}

// refine walks the remaining 8-bit digits of the candidate set (the set
// shrinks geometrically, so this is never the hot pass) and returns the
// k-th largest bit pattern with how many candidates equal to it the top k
// holds.
func refine(cands []uint64, k int) (uint64, int) {
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
	// Either one candidate remains (and k is 1) or all surviving
	// candidates share every byte and are equal.
	return cands[0], k
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
func pickBucket16(counts *[1 << 15]int32, k int) (uint64, int) {
	for b := len(counts) - 1; b >= 0; b-- {
		c := int(counts[b])
		if c >= k {
			return uint64(b), k
		}
		k -= c
	}
	panic("tensor: radix bucket walk exhausted") // unreachable: sum(counts) >= k
}

// TopKSort is a sort-based O(d log d) top-k, the differential-testing
// oracle for the radix selection: a stable sort on the masked bit
// patterns, so magnitude ties keep index order and a NaN ranks above
// +Inf. Indices are returned in ascending order.
//
//sidco:oracle the reference selection TopKAccumulateInto is tested against
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
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(math.Float64bits(g[b])&absMask, math.Float64bits(g[a])&absMask)
	})
	top := order[:k]
	slices.Sort(top)
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
