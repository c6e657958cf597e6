package tensor

import (
	"fmt"
	"math"
)

// Sparse is a sparse gradient vector: the (index, value) pairs a
// compressor keeps, plus the dense dimension. Indices are ascending and
// unique; NewSparse enforces this invariant.
type Sparse struct {
	Dim  int
	Idx  []int32
	Vals []float64
}

// NewSparse constructs a Sparse after validating the invariants: equal
// index/value lengths, indices in [0, dim) and strictly ascending.
//
//sidco:oracle the validating constructor tests build their fixtures with
func NewSparse(dim int, idx []int32, vals []float64) (*Sparse, error) {
	s := &Sparse{Dim: dim, Idx: idx, Vals: vals}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the Sparse invariants without allocating: equal
// index/value lengths, indices in [0, Dim) and strictly ascending. It is
// what NewSparse enforces, exposed so decoders filling reused storage can
// re-establish the contract.
func (s *Sparse) Validate() error {
	if len(s.Idx) != len(s.Vals) {
		return fmt.Errorf("tensor: index/value length mismatch: %d vs %d", len(s.Idx), len(s.Vals))
	}
	prev := int32(-1)
	for _, i := range s.Idx {
		if i <= prev {
			return fmt.Errorf("tensor: indices not strictly ascending at %d", i)
		}
		if int(i) >= s.Dim {
			return fmt.Errorf("tensor: index %d out of range for dim %d", i, s.Dim)
		}
		prev = i
	}
	return nil
}

// Reset prepares s for reuse as an empty dim-dimensional vector, keeping
// the index/value storage capacity. It is the entry point of every
// *Into fast path: compressors and decoders Reset then append, so
// steady-state iterations recycle the same backing arrays.
func (s *Sparse) Reset(dim int) {
	s.Dim = dim
	s.Idx = s.Idx[:0]
	s.Vals = s.Vals[:0]
}

// Append adds one (index, value) pair. Callers must append in strictly
// ascending index order to preserve the Sparse invariant; Append does not
// re-check it (use Validate after bulk fills of untrusted data).
func (s *Sparse) Append(i int32, v float64) {
	s.Idx = append(s.Idx, i)
	s.Vals = append(s.Vals, v)
}

// Grow ensures capacity for at least n stored elements, preserving
// current contents.
func (s *Sparse) Grow(n int) {
	if cap(s.Idx) < n {
		idx := make([]int32, len(s.Idx), n)
		copy(idx, s.Idx)
		s.Idx = idx
	}
	if cap(s.Vals) < n {
		vals := make([]float64, len(s.Vals), n)
		copy(vals, s.Vals)
		s.Vals = vals
	}
}

// CopyFrom makes s an independent copy of o, reusing s's storage.
func (s *Sparse) CopyFrom(o *Sparse) {
	s.Dim = o.Dim
	s.Idx = append(s.Idx[:0], o.Idx...)
	s.Vals = append(s.Vals[:0], o.Vals...)
}

// NNZ returns the number of stored non-zeros.
func (s *Sparse) NNZ() int { return len(s.Idx) }

// Dense scatters the sparse vector into a fresh dense slice of length Dim.
//
//sidco:oracle the dense view tests compare a selection through
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Dim)
	for i, j := range s.Idx {
		out[j] = s.Vals[i]
	}
	return out
}

// AddTo scatters s into dst (dst[j] += v), which must have length Dim.
func (s *Sparse) AddTo(dst []float64) {
	if len(dst) != s.Dim {
		panic("tensor: AddTo dimension mismatch")
	}
	for i, j := range s.Idx {
		dst[j] += s.Vals[i]
	}
}

// MeanSparseInto writes the mean of parts into dst as one merged sparse
// vector: ascending indices over the union of the supports, each value
// summed in part order and scaled by 1/len(parts). Per index the
// operation sequence is ((0 + v0) + v1 + ...) * (1/N) over the parts that
// hold it — exactly what Zero, AddTo in part order and Scale(1/N) do to a
// dense vector, the leading +0 included, so a lone -0 contribution sums to
// +0 as it does there. Indices whose sum is exactly zero are dropped: the
// dense reduction leaves +0 at them, which is what scattering dst into a
// zeroed vector leaves too.
//
// It is a left fold of one two-way merge (mergePair): parts 0 and 1, that
// and part 2, and so on; the last merge scales by 1/N, the others by 1,
// which leaves every value's bits. A merge stores, at
// each index of the union, (0 + a) + b with an absent side's value masked
// to +0. That is exact: a partial sum 0 + v + ... is never -0, and
// x + (+0) is x for every such x, so each index gets the sequence above
// whichever parts hold it. A partial sum that cancels to +0 is dropped on
// the spot; the next part's value then meets the same +0 the dense path
// holds there. The cost is O(N · Σ nnz) at worst — nothing scales with
// Dim — in straight-line loops with no data-dependent branch.
//
// Every part must have dst's dimension-to-be, parts[0].Dim (a mismatch is
// a caller bug and panics, as AddTo does); dst must not be one of parts.
// No parts gives the empty vector of dimension 0. From three parts on,
// the fold ping-pongs between the two halves of dst's own storage, so
// there is no scratch beyond it.
//
//sidco:hotpath
func MeanSparseInto(dst *Sparse, parts []Sparse) {
	if len(parts) == 0 {
		dst.Reset(0)
		return
	}
	dst.Reset(parts[0].Dim)
	total := 0
	for p := range parts {
		if parts[p].Dim != dst.Dim {
			panic("tensor: MeanSparseInto dimension mismatch")
		}
		total += len(parts[p].Idx)
	}
	// A merge writes at most the pairs it reads, so a half of total pairs
	// holds any of them. The last merge writes the front half and the one
	// before it the back, alternating; a quarter of headroom keeps
	// supports that wander from regrowing the storage.
	need := total
	if len(parts) > 2 {
		need = 2 * total
	}
	if cap(dst.Idx) < need || cap(dst.Vals) < need {
		dst.Grow(need + need/4)
	}
	idx, vals := dst.Idx[:need], dst.Vals[:need]
	ai, av := parts[0].Idx, parts[0].Vals
	for m := 1; m < len(parts)-1; m++ {
		half := total * ((len(parts) - 1 - m) % 2)
		n := mergePair(idx[half:half+total], vals[half:half+total], ai, av, parts[m].Idx, parts[m].Vals, 1)
		ai, av = idx[half:half+n], vals[half:half+n]
	}
	var bi []int32
	var bv []float64
	if last := len(parts) - 1; last > 0 {
		bi, bv = parts[last].Idx, parts[last].Vals
	}
	n := mergePair(idx[:total], vals[:total], ai, av, bi, bv, 1/float64(len(parts)))
	dst.Idx, dst.Vals = idx[:n], vals[:n]
}

// mergePair merges the ascending pairs (ai, av) and (bi, bv) into the
// front of outI and outV, which must hold len(ai) + len(bi) pairs, and
// returns how many it kept: mergeHeads while both sides have pairs, then
// mergeTail over the rest of the one that does.
func mergePair(outI []int32, outV []float64, ai []int32, av []float64, bi []int32, bv []float64, scale float64) int {
	n, pa, pb := mergeHeads(outI, outV, ai, av, bi, bv, scale)
	n += mergeTail(outI[n:], outV[n:], ai[pa:], av[pa:], scale)
	return n + mergeTail(outI[n:], outV[n:], bi[pb:], bv[pb:], scale)
}

// mergeHeads is mergePair's loop while both sides have pairs. At the
// cursor n it stores the smaller head index and s·scale, s = (0 + a) + b
// with the side that does not hold the index masked to +0; it advances
// each side by its own compare and the cursor by s != 0. It returns the
// cursor and both read positions. Like pairsAbove it stays out of line:
// in mergePair's frame the compiler kept the three positions on the stack,
// a store and a reload on the loop's dependency chain.
//
//go:noinline
func mergeHeads(outI []int32, outV []float64, ai []int32, av []float64, bi []int32, bv []float64, scale float64) (n, pa, pb int) {
	na, nb := len(ai), len(bi)
	av, bv = av[:na], bv[:nb]
	outI, outV = outI[:na+nb], outV[:na+nb]
	for pa < na && pb < nb {
		ia, ib := ai[pa], bi[pb]
		va, vb := av[pa], bv[pb]
		ta, tb := b2i(ia <= ib), b2i(ib <= ia)
		m := ib
		if ta == 1 {
			m = ia // a conditional move
		}
		a := math.Float64frombits(math.Float64bits(va) & -uint64(ta))
		b := math.Float64frombits(math.Float64bits(vb) & -uint64(tb))
		s := (0 + a) + b
		outI[n] = m
		outV[n] = s * scale
		n += b2i(s != 0)
		pa += ta
		pb += tb
	}
	return n, pa, pb
}

// mergeTail is mergePair's store for the pairs of one side alone: there
// (0 + v) + 0 is 0 + v, the partial sum never being -0.
func mergeTail(outI []int32, outV []float64, ti []int32, tv []float64, scale float64) int {
	outI, outV, tv = outI[:len(ti)], outV[:len(ti)], tv[:len(ti)]
	n := 0
	for i, j := range ti {
		s := 0 + tv[i]
		outI[n], outV[n] = j, s*scale
		n += b2i(s != 0)
	}
	return n
}
