package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FormatDeltaVarint encodes indices as varint-encoded gaps plus packed
// float32 values. Because sparse selections produce small, regular gaps
// (mean gap = 1/delta), the gap stream compresses far below the 4 bytes
// per index of the pair format — the index-compression direction the
// paper cites (Gajjala et al., Huffman-coded DGC). Typical size at
// delta = 0.001 is ~5.5 bytes/element vs 8 for pairs.
const FormatDeltaVarint Format = 3

func appendDeltaVarint(dst []byte, s *tensor.Sparse) []byte {
	buf, hdr := extend(dst, headerSize)
	putHeader(hdr, FormatDeltaVarint, s.Dim, s.NNZ())
	prev := int32(-1)
	var tmp [binary.MaxVarintLen64]byte
	for _, j := range s.Idx {
		gap := uint64(j - prev) // >= 1 by the ascending-unique invariant
		n := binary.PutUvarint(tmp[:], gap)
		buf = append(buf, tmp[:n]...)
		prev = j
	}
	for _, v := range s.Vals {
		var vb [4]byte
		binary.LittleEndian.PutUint32(vb[:], math.Float32bits(float32(v)))
		buf = append(buf, vb[:]...)
	}
	return buf
}

// decodeDeltaVarint is the counterpart of appendDeltaVarint; it is wired
// into DecodeInto via the format byte.
func decodeDeltaVarint(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	// Every gap takes at least one byte and every value exactly four, so a
	// buffer shorter than headerSize+5*nnz cannot be valid. Checking first
	// keeps a hostile header from provoking a huge allocation.
	if len(buf) < headerSize+5*nnz {
		return fmt.Errorf("encoding: delta-varint size %d below minimum %d for nnz %d",
			len(buf), headerSize+5*nnz, nnz)
	}
	s.Reset(dim)
	s.Grow(nnz)
	pos := headerSize
	prev := int64(-1)
	for i := 0; i < nnz; i++ {
		gap, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return fmt.Errorf("encoding: corrupt varint gap at element %d", i)
		}
		if gap == 0 || gap > uint64(dim) {
			return fmt.Errorf("encoding: varint gap %d out of range at element %d", gap, i)
		}
		if n > 1 && buf[pos+n-1] == 0 {
			// Redundant trailing continuation bytes would let two distinct
			// buffers decode to the same vector, breaking the exact
			// byte-accounting the transport instrumentation relies on.
			return fmt.Errorf("encoding: non-canonical varint gap at element %d", i)
		}
		pos += n
		prev += int64(gap)
		if prev >= int64(dim) {
			return fmt.Errorf("encoding: decoded index %d out of dim %d", prev, dim)
		}
		s.Idx = append(s.Idx, int32(prev))
	}
	if len(buf) != pos+4*nnz {
		return fmt.Errorf("encoding: delta-varint size %d, want %d", len(buf), pos+4*nnz)
	}
	for i := 0; i < nnz; i++ {
		s.Vals = append(s.Vals, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[pos:]))))
		pos += 4
	}
	return nil
}
