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
// zeroed vector leaves too. The cost is O(N * output) — nothing scales
// with Dim.
//
// Every part must have dst's dimension-to-be, parts[0].Dim (a mismatch is
// a caller bug and panics, as AddTo does); dst must not be one of parts.
// No parts gives the empty vector of dimension 0.
//
//sidco:hotpath
func MeanSparseInto(dst *Sparse, parts []Sparse) {
	if len(parts) == 0 {
		dst.Reset(0)
		return
	}
	dst.Reset(parts[0].Dim)
	// Per part, the read cursor and the index under it (exhausted once
	// the cursor runs off the end: no int32 index reaches math.MaxInt).
	// Deployments are a few dozen ranks; the stack arrays keep the steady
	// state allocation-free for them.
	const exhausted = math.MaxInt
	var stack [2][64]int
	pos, heads := stack[0][:0], stack[1][:0]
	if len(parts) > len(stack[0]) {
		pos = make([]int, 0, 2*len(parts)) //sidco:alloc beyond 64 parts only; one small slice per merge
		heads = pos[len(parts):len(parts)]
	}
	pos, heads = pos[:len(parts)], heads[:len(parts)]
	largest := 0
	for p := range parts {
		if parts[p].Dim != dst.Dim {
			panic("tensor: MeanSparseInto dimension mismatch")
		}
		pos[p], heads[p] = 0, exhausted
		if len(parts[p].Idx) > 0 {
			heads[p] = int(parts[p].Idx[0])
		}
		largest = max(largest, len(parts[p].Idx))
	}
	// The union holds at least the largest part (cancelling sums aside):
	// one allocation, not append's ladder, when dst starts empty.
	dst.Grow(largest)
	inv := 1 / float64(len(parts))
	for {
		next := exhausted
		for _, h := range heads {
			if h < next {
				next = h
			}
		}
		if next == exhausted {
			return
		}
		sum := 0.0
		for p, h := range heads {
			if h != next {
				continue
			}
			part := &parts[p]
			at := pos[p]
			sum += part.Vals[at]
			at++
			pos[p], heads[p] = at, exhausted
			if at < len(part.Idx) {
				heads[p] = int(part.Idx[at])
			}
		}
		if sum != 0 {
			dst.Append(int32(next), sum*inv)
		}
	}
}
