// Package tensor provides the dense/sparse vector substrate for gradient
// compression: elementwise operations, exact top-k selection via
// quickselect and sorting, threshold filtering, and a sparse vector type
// that carries (index, value) pairs between compressor and collective.
//
// On an amd64 CPU with AVX2 (internal/cpu, probed once at start-up; there
// is no setting) the exceedance path — the gather of PairsAboveThreshold,
// the compaction of CompactPairsAbove and the excess sums both carry —
// runs each block's whole groups of four from gather_amd64.s, four
// elements to an instruction, and the last len%4 in Go. The rule that
// keeps them bit for bit the Go loops: a kept pair is moved, never
// computed (|x| is x with the sign bit cleared, as math.Abs gives, and the
// comparison is false on a NaN, as Go's > is), and each excess lane holds
// the elements the Go loop puts in it and does what that loop does to
// them — a subtract, an add, a multiply and an add, each rounded on its
// own, never a fused multiply-add. The stores are full-width: one lands
// up to 3 slots past the write cursor, but the cursor never runs ahead of
// the element index, so no store passes the block — which is why the
// lists' backing arrays beyond the returned lengths are scratch.
// TestAVX2GatherMatchesGo holds each body to its Go twin, and the gather's
// tests run on both paths.
package tensor

import (
	"math"
	"slices"
)

// Axpy computes y += a*x elementwise. The two slices must have equal
// length.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Scale multiplies every element of x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Add computes y += x elementwise.
func Add(x, y []float64) { Axpy(1, x, y) }

// Zero sets every element of x to 0.
func Zero(x []float64) { clear(x) }

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Abs writes |x| into dst and returns it; dst may be x itself for in-place
// operation, or nil to allocate.
func Abs(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	if len(dst) != len(x) {
		panic("tensor: Abs length mismatch")
	}
	for i, xi := range x {
		dst[i] = math.Abs(xi)
	}
	return dst
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	sum := 0.0
	for _, xi := range x {
		sum += xi * xi
	}
	return math.Sqrt(sum)
}

// CountAboveThreshold returns the number of elements with |x_i| >= eta —
// the single O(d) pass at the heart of threshold sparsification.
func CountAboveThreshold(x []float64, eta float64) int {
	n := 0
	for _, xi := range x {
		if math.Abs(xi) >= eta {
			n++
		}
	}
	return n
}

// FilterAboveThreshold appends the indices and values of elements with
// |x_i| >= eta to the provided slices (which may be nil) and returns them.
// This is the compression operator C_eta of Section 2.3.
func FilterAboveThreshold(x []float64, eta float64, idx []int32, vals []float64) ([]int32, []float64) {
	for i, xi := range x {
		if math.Abs(xi) >= eta {
			idx = append(idx, int32(i))
			vals = append(vals, xi)
		}
	}
	return idx, vals
}

// gatherBlock is the block length of the exceedance gather: the lists'
// capacity is ensured once per block, so the element loop carries no
// append bookkeeping and headroom never exceeds one block. It is also the
// summation granularity of the excess moments the gather carries.
const gatherBlock = 4096

// Excess holds the moments of a list of exceedances over its threshold
// eta: Σ(a-eta) and Σ(a-eta)² over the kept magnitudes a > eta — what the
// peak-over-threshold fit of the next stage consumes, so that no fit reads
// a list again. The summation order is fixed, whoever computes it: per
// gatherBlock of the *input*, the kept run is summed in four interleaved
// lanes (element j in lane j%4, the tail in lane 0) that combine as
// (l0+l1)+(l2+l3), and the block sums add in block order.
type Excess struct{ Sum, SumSq float64 }

// add accumulates the excess moments of one block's kept magnitudes. One
// accumulator per sum would serialise the loop on the adder's latency;
// four lanes each keep it on its throughput.
//
//sidco:hotpath
func (e *Excess) add(kept []float64, eta float64) {
	v := len(kept) &^ 3
	s, q := gather.excess(kept[:v], eta)
	for _, a := range kept[v:] {
		x := a - eta
		s[0] += x
		q[0] += x * x
	}
	e.Sum += (s[0] + s[1]) + (s[2] + s[3])
	e.SumSq += (q[0] + q[1]) + (q[2] + q[3])
}

// gatherKernels are the exceedance loops that have an AVX2 body
// (gather_amd64.s), each with its Go twin's signature. Their callers hand
// them the whole groups of four at the front of a block, len &^ 3
// elements, and finish the rest with the Go loop.
type gatherKernels struct {
	pairs   func(blk []float64, eta float64, base int32, outM []float64, outI []int32) int
	compact func(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int
	excess  func(kept []float64, eta float64) (s, q [4]float64)
}

// goGather are the Go loops below: the path on a machine without AVX2 and
// the oracle the AVX2 bodies are tested against.
var goGather = gatherKernels{pairsAbove, compactAbove, excessLanes}

// gather is what the exceedance path calls: goGather, or the AVX2 bodies
// when gather_amd64.go's init finds the CPU and OS support them.
var gather = &goGather

// excessLanes sums a-eta and (a-eta)² over kept, whose length is a
// multiple of four, element j into lane j%4 of s and q.
func excessLanes(kept []float64, eta float64) (s, q [4]float64) {
	var s0, s1, s2, s3, q0, q1, q2, q3 float64
	for ; len(kept) >= 4; kept = kept[4:] {
		x0, x1, x2, x3 := kept[0]-eta, kept[1]-eta, kept[2]-eta, kept[3]-eta
		s0, s1, s2, s3 = s0+x0, s1+x1, s2+x2, s3+x3
		q0, q1, q2, q3 = q0+x0*x0, q1+x1*x1, q2+x2*x2, q3+x3*x3
	}
	return [4]float64{s0, s1, s2, s3}, [4]float64{q0, q1, q2, q3}
}

// PairsAboveThreshold appends, for every element with |x_i| > eta, |x_i|
// to mags and base+i to idx (one list in two slices of equal length) and
// returns both beside the excess moments of what it appended. The strict
// inequality matches the exceedance definition of the multi-stage
// estimator (values equal to the previous threshold have already been
// counted); the index lets the final selection be read off the list
// instead of off x again.
//
// Every pair is stored at the write cursor and the cursor advances by
// the comparison's outcome, so the loop has no data-dependent branch: at
// the ~25-30% selectivity of a first SIDCo stage that branch is
// unpredictable and cost 7x the count-only pass. The moments are summed
// over each block's kept run while it is still in L1. The lists' backing
// arrays beyond the returned lengths are scratch: a store may land up to 3
// slots past the cursor, never past the block (package doc).
//
//sidco:hotpath
func PairsAboveThreshold(x []float64, eta float64, base int32, mags []float64, idx []int32) ([]float64, []int32, Excess) {
	var ex Excess
	n := len(mags) // == len(idx): the two are one list
	for len(x) > 0 {
		blk := x[:min(gatherBlock, len(x))]
		x = x[len(blk):]
		if min(cap(mags), cap(idx))-n < len(blk) {
			//sidco:alloc amortised growth of caller-owned storage, by append's policy; steady state reuses it
			mags, idx = slices.Grow(mags[:n], len(blk)), slices.Grow(idx[:n], len(blk))
		}
		outM, outI := mags[n:n+len(blk)], idx[n:n+len(blk)]
		v := len(blk) &^ 3
		m := gather.pairs(blk[:v], eta, base, outM, outI)
		m += pairsAbove(blk[v:], eta, base+int32(v), outM[m:], outI[m:])
		ex.add(outM[:m], eta)
		n += m
		base += int32(len(blk))
	}
	return mags[:n], idx[:n], ex
}

// CompactPairsAbove appends to (dstM, dstI), in order, the pairs of
// (mags, idx) whose magnitude is > eta — the same loop over a list instead
// of a vector — and returns them with their excess moments. The source is
// left intact: the caller ping-pongs two lists so that the one before an
// overshooting cut survives it. dst must not alias the source.
//
//sidco:hotpath
func CompactPairsAbove(dstM []float64, dstI []int32, mags []float64, idx []int32, eta float64) ([]float64, []int32, Excess) {
	var ex Excess
	idx = idx[:len(mags)]
	n := len(dstM)
	for len(mags) > 0 {
		blkM, blkI := mags[:min(gatherBlock, len(mags))], idx[:min(gatherBlock, len(mags))]
		mags, idx = mags[len(blkM):], idx[len(blkM):]
		if min(cap(dstM), cap(dstI))-n < len(blkM) {
			//sidco:alloc amortised growth of caller-owned storage, by append's policy; steady state reuses it
			dstM, dstI = slices.Grow(dstM[:n], len(blkM)), slices.Grow(dstI[:n], len(blkM))
		}
		outM, outI := dstM[n:n+len(blkM)], dstI[n:n+len(blkM)]
		v := len(blkM) &^ 3
		m := gather.compact(blkM[:v], blkI[:v], eta, outM, outI)
		m += compactAbove(blkM[v:], blkI[v:], eta, outM[m:], outI[m:])
		ex.add(outM[:m], eta)
		n += m
	}
	return dstM[:n], dstI[:n], ex
}

// pairsAbove and compactAbove are the element loops of PairsAboveThreshold
// and CompactPairsAbove: store every pair at the cursor m, advance m by the
// comparison, return m. They run a block's last len%4 elements, and the
// rest of it too where the AVX2 bodies do not. They stay out of line
// because in their callers' frames the compiler kept m on the stack, a
// store and a reload on every element's dependency chain.
//
//go:noinline
func pairsAbove(blk []float64, eta float64, base int32, outM []float64, outI []int32) int {
	outM, outI = outM[:len(blk)], outI[:len(blk)]
	m := 0
	for i, xi := range blk {
		a := math.Abs(xi)
		outM[m], outI[m] = a, base+int32(i)
		m += b2i(a > eta)
	}
	return m
}

//go:noinline
func compactAbove(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int {
	blkI, outM, outI = blkI[:len(blkM)], outM[:len(blkM)], outI[:len(blkM)]
	m := 0
	for i, a := range blkM {
		outM[m], outI[m] = a, blkI[i]
		m += b2i(a > eta)
	}
	return m
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// materialisation, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SparsificationError returns ||g - T_k(g)||_2 given the dense vector and
// the set of kept indices — the sigma_k(g) of Definition 1, used to verify
// gradient compressibility (Figure 7b).
func SparsificationError(g []float64, kept []int32) float64 {
	keptSet := make(map[int32]struct{}, len(kept))
	for _, i := range kept {
		keptSet[i] = struct{}{}
	}
	sum := 0.0
	for i, gi := range g {
		if _, ok := keptSet[int32(i)]; !ok {
			sum += gi * gi
		}
	}
	return math.Sqrt(sum)
}
