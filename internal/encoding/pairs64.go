package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FormatPairs64 encodes (uint32 index, float64 value) per non-zero: 12
// bytes each. It is the only lossless format — values round-trip bitwise
// instead of through float32 — so it is what internal/cluster ships when
// a training run must stay bit-identical to the in-process aggregation
// path, and the format the cluster's zero Config ships. It exists for
// exactness, not size.
const FormatPairs64 Format = 4

// Pairs64Size returns the encoded size in bytes of k non-zeros of a
// d-dimensional vector in lossless pair format.
func Pairs64Size(d, k int) int { return headerSize + 12*k }

func appendPairs64(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, Pairs64Size(s.Dim, s.NNZ()))
	putHeader(buf, FormatPairs64, s.Dim, s.NNZ())
	off := headerSize
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(s.Vals[i]))
		off += 12
	}
	return dst
}

// decodePairs64 fills s's storage by index and checks, in the same loop,
// what Sparse.Validate would after: indices strictly ascending and below
// dim, refused with Validate's words.
func decodePairs64(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != Pairs64Size(dim, nnz) {
		return fmt.Errorf("encoding: pairs64 size %d, want %d", len(buf), Pairs64Size(dim, nnz))
	}
	s.Reset(dim)
	s.Grow(nnz)
	idx, vals := s.Idx[:nnz], s.Vals[:nnz]
	pairs := buf[headerSize:]
	prev := int32(-1)
	for i := range idx {
		j := int32(binary.LittleEndian.Uint32(pairs[12*i:]))
		if j <= prev {
			return fmt.Errorf("tensor: indices not strictly ascending at %d", j)
		}
		if int(j) >= dim {
			return fmt.Errorf("tensor: index %d out of range for dim %d", j, dim)
		}
		idx[i], vals[i] = j, math.Float64frombits(binary.LittleEndian.Uint64(pairs[12*i+4:]))
		prev = j
	}
	s.Idx, s.Vals = idx, vals
	return nil
}
