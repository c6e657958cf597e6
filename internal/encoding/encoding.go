// Package encoding provides the wire formats used to ship sparse
// gradients between workers: a lossless (uint32 index, float64 value)
// pair format for bit-exact cluster training, a bitmap+float32 values
// format for the parameter server's moderate densities, a (uint32 index,
// bfloat16 value) pair format with a quarter of the lossless format's
// value bytes, and exact size accounting that the network cost model and
// the instrumented cluster transport both consume.
//
// Exact encoded sizes, for a d-dimensional vector with k stored
// non-zeros (every format starts with the 9-byte header: 1 format byte,
// uint32 dim, uint32 nnz):
//
//	Format           Size in bytes      Value width
//	FormatBitmap     9 + ceil(d/8)+4k   float32 (4 B) + d-bit bitmap
//	FormatPairs64    9 + 12k            float64 (8 B) + uint32 index, lossless
//	FormatPairsBF16  9 + 6k             bfloat16 (2 B) + uint32 index
//
// Size returns these closed forms programmatically. Format bytes 0, 2, 3,
// 5 and 7 belonged to retired formats (float32 pairs, float32 dense,
// delta-varint, binary16 pairs, int8 pairs): they stay reserved, no new
// format takes them, and DecodeInto refuses them.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Format identifies a gradient wire format. Its value is the header's
// first byte.
type Format int

// FormatBitmap encodes a d-bit presence bitmap plus packed float32
// values: d/8 + 4k bytes. It is smaller than FormatPairs64 above a
// density of 1/64 and than FormatPairsBF16 above 1/16.
const FormatBitmap Format = 1

// String implements fmt.Stringer; the names appear in reports and
// telemetry attributions.
func (f Format) String() string {
	switch f {
	case FormatBitmap:
		return "bitmap"
	case FormatPairs64:
		return "pairs64"
	case FormatPairsBF16:
		return "pairs-bf16"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// header layout: 1 byte format, 4 bytes dim, 4 bytes nnz.
const headerSize = 9

// BitmapSize returns the encoded size in bytes in bitmap format.
func BitmapSize(d, k int) int { return headerSize + (d+7)/8 + 4*k }

// Size returns the exact encoded size in bytes of k non-zeros of a
// d-dimensional vector in format f, or an error for an unknown format.
func Size(f Format, d, k int) (int, error) {
	switch f {
	case FormatBitmap:
		return BitmapSize(d, k), nil
	case FormatPairs64:
		return Pairs64Size(d, k), nil
	case FormatPairsBF16:
		return PairsBF16Size(d, k), nil
	default:
		return 0, fmt.Errorf("encoding: unknown format %d", f)
	}
}

// Encode serialises s in the given format into a fresh buffer.
//
//sidco:oracle the allocating encode the round-trip and fuzz tests use
func Encode(s *tensor.Sparse, f Format) ([]byte, error) {
	return EncodeTo(nil, s, f)
}

// EncodeTo appends the serialisation of s in the given format to dst
// (which may be nil) and returns the extended buffer. Callers that keep
// the returned buffer and pass `buf[:0]` back in amortise the wire
// allocation away — the streaming pipeline encodes every chunk of every
// step into recycled buffers this way.
//
//sidco:hotpath
func EncodeTo(dst []byte, s *tensor.Sparse, f Format) ([]byte, error) {
	if s.Dim > math.MaxUint32 || s.NNZ() > math.MaxUint32 {
		return nil, fmt.Errorf("encoding: vector too large") //sidco:alloc input-validation error path, not steady state
	}
	switch f {
	case FormatBitmap:
		return appendBitmap(dst, s), nil
	case FormatPairs64:
		return appendPairs64(dst, s), nil
	case FormatPairsBF16:
		return appendPairsBF16(dst, s), nil
	default:
		return nil, fmt.Errorf("encoding: unknown format %d", f) //sidco:alloc input-validation error path, not steady state
	}
}

// extend grows dst by n bytes and returns the full buffer plus the
// writable window for those n bytes. The window is not zeroed: fixed-
// layout encoders overwrite every byte they claim.
func extend(dst []byte, n int) (all, w []byte) {
	if cap(dst)-len(dst) >= n {
		all = dst[:len(dst)+n]
	} else {
		all = append(dst, make([]byte, n)...)
	}
	return all, all[len(all)-n:]
}

func putHeader(buf []byte, f Format, dim, nnz int) {
	buf[0] = byte(f)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(dim))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(nnz))
}

func appendBitmap(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, BitmapSize(s.Dim, s.NNZ()))
	putHeader(buf, FormatBitmap, s.Dim, s.NNZ())
	bitmap := buf[headerSize : headerSize+(s.Dim+7)/8]
	clear(bitmap) // reused windows carry stale bits
	for _, j := range s.Idx {
		bitmap[j/8] |= 1 << (uint(j) % 8)
	}
	off := headerSize + len(bitmap)
	for _, v := range s.Vals {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	return dst
}

// Decode deserialises a gradient encoded by Encode. FormatPairs64 returns
// values bit for bit; FormatBitmap rounds them through float32 and
// FormatPairsBF16 through bfloat16. Decode never panics on malformed input: header
// fields are validated against the buffer length before any
// size-proportional allocation, so hostile headers claiming huge
// dimensions or counts fail cleanly.
//
//sidco:oracle the allocating decode the round-trip and fuzz tests compare against
func Decode(buf []byte) (*tensor.Sparse, error) {
	s := &tensor.Sparse{}
	if err := DecodeInto(s, buf); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeInto is Decode over caller-owned sparse storage: s is Reset and
// filled in place, so a receive loop decoding into the same vector does
// no per-message allocation once its capacity has warmed up. s's prior
// contents are never visible in the result — on error s may hold partial
// data, but a nil error guarantees the full Sparse invariant (DecodeInto
// re-validates untrusted index streams just as Decode did).
//
//sidco:hotpath
func DecodeInto(s *tensor.Sparse, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("encoding: truncated header") //sidco:alloc corrupt-input error path, not steady state
	}
	f := Format(buf[0])
	dim := int(binary.LittleEndian.Uint32(buf[1:5]))
	nnz := int(binary.LittleEndian.Uint32(buf[5:9]))
	if nnz > dim {
		return fmt.Errorf("encoding: nnz %d exceeds dim %d", nnz, dim) //sidco:alloc corrupt-input error path, not steady state
	}
	switch f {
	case FormatBitmap:
		return decodeBitmap(s, buf, dim, nnz)
	case FormatPairs64:
		return decodePairs64(s, buf, dim, nnz)
	case FormatPairsBF16:
		return decodePairsBF16(s, buf, dim, nnz)
	default:
		return fmt.Errorf("encoding: unknown or retired format byte %d", buf[0]) //sidco:alloc corrupt-input error path, not steady state
	}
}

func decodeBitmap(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != BitmapSize(dim, nnz) {
		return fmt.Errorf("encoding: bitmap size %d, want %d", len(buf), BitmapSize(dim, nnz))
	}
	bitmap := buf[headerSize : headerSize+(dim+7)/8]
	if dim%8 != 0 && bitmap[len(bitmap)-1]>>(uint(dim)%8) != 0 {
		// Set padding bits past dim would make two distinct buffers decode
		// identically; reject the non-canonical form.
		return fmt.Errorf("encoding: bitmap padding bits set past dim %d", dim)
	}
	s.Reset(dim)
	s.Grow(nnz)
	// Walk the set bits a 64-bit word at a time (bit p of the
	// little-endian word at byte b is index 8b+p; the last word is
	// assembled from the < 8 tail bytes). The popcount is checked before
	// a word's bits are appended, so a bitmap holding more bits than its
	// header claims is refused without growing s.Idx past nnz.
	idx := s.Idx
	for b := 0; b < len(bitmap); b += 8 {
		var w uint64
		if rest := bitmap[b:]; len(rest) >= 8 {
			w = binary.LittleEndian.Uint64(rest)
		} else {
			for i, by := range rest {
				w |= uint64(by) << (8 * i)
			}
		}
		if count := len(idx) + bits.OnesCount64(w); count > nnz {
			return bitmapPopcountError(count, nnz)
		}
		for ; w != 0; w &= w - 1 {
			idx = append(idx, int32(8*b+bits.TrailingZeros64(w)))
		}
	}
	s.Idx = idx
	if len(idx) != nnz {
		return bitmapPopcountError(len(idx), nnz)
	}
	off := headerSize + len(bitmap)
	for i := 0; i < nnz; i++ {
		s.Vals = append(s.Vals, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))))
		off += 4
	}
	return nil
}

// bitmapPopcountError reports a bitmap whose set bits (all of them, or
// those counted when the decoder gave up) disagree with the header.
func bitmapPopcountError(count, nnz int) error {
	return fmt.Errorf("encoding: bitmap popcount %d, header says %d", count, nnz)
}
