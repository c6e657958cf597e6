// Package encoding provides the wire formats used to ship sparse
// gradients between workers: a lossless format (float64 values, bit for
// bit, beside Elias–Fano coded indices) for bit-exact cluster training, a
// bitmap+float32 values format for the parameter server's moderate
// densities, a (uint32 index, bfloat16 value) pair format for slow links,
// and exact size accounting that the network cost model and the
// instrumented cluster transport both consume.
//
// Exact encoded sizes, for a d-dimensional vector with k stored
// non-zeros (every format starts with the 9-byte header: 1 format byte,
// uint32 dim, uint32 nnz):
//
//	Format           Size in bytes               Value width
//	FormatBitmap     9 + ceil(d/8) + 4k          float32 (4 B) + d-bit bitmap
//	FormatPairs64    9 + 8k + ceil(b/8)          float64 (8 B) + Elias–Fano index, lossless
//	FormatPairsBF16  9 + 6k                      bfloat16 (2 B) + uint32 index
//
// where b = k(L+1) + floor((d-1)/2^L) + 1 bits with L = floor(log2(d/k)),
// and b = 0 when k = 0: at d = 1 847 306 and k = 17 354 (a
// train-sidco-tcp payload) L = 6 and the lossless payload is 157 634 B,
// 9.08 B per element.
//
// Size returns these closed forms programmatically. Format bytes 0, 2, 3,
// 4, 5 and 7 belonged to retired formats (float32 pairs, float32 dense,
// delta-varint, the 12-byte uint32 index + float64 pairs, binary16 pairs,
// int8 pairs): they stay reserved, no new format takes them, and
// DecodeInto refuses them by name.
//
// A payload is decoded by DecodeInto into a sparse vector, or by
// DecodeDenseInto straight into a dense one (a 64-element block of a
// bitmap at a time, nothing sparse in between). MeanBitmap merges bitmap
// payloads into the bitmap payload of their mean a 64-bit word at a
// time, without decoding them: the parameter server's round. Both refuse
// every buffer DecodeInto refuses. DecodeDenseInto leaves the values that
// DecodeInto and assigning its elements into a cleared vector leave;
// MeanBitmap gives the bytes that DecodeInto, tensor.MeanSparseInto and
// EncodeTo give.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Format identifies a gradient wire format. Its value is the header's
// first byte.
type Format int

// FormatBitmap encodes a d-bit presence bitmap plus packed float32
// values: d/8 + 4k bytes. It is smaller than FormatPairs64 above a
// density of about 1/39 and than FormatPairsBF16 above 1/16.
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
	f, dim, nnz, err := header(buf)
	if err != nil {
		return err
	}
	switch f {
	case FormatBitmap:
		return decodeBitmap(s, buf, dim, nnz)
	case FormatPairs64:
		return decodePairs64(s, buf, dim, nnz)
	case FormatPairsBF16:
		return decodePairsBF16(s, buf, dim, nnz)
	default:
		return retiredError(f)
	}
}

// DecodeDenseInto decodes buf straight into the dense vector out, which
// must have the payload's dim elements: a stored element gets its decoded
// value and every other element +0 — what DecodeInto, clearing out and
// assigning the stored elements leave, without the sparse vector in
// between. It refuses every buffer DecodeInto refuses, and a dim other
// than len(out); on error out may hold partial data. A bitmap payload is
// written one 64-element block at a time: the block is cleared, then its
// stored values assigned, so out is swept once.
//
//sidco:hotpath
func DecodeDenseInto(out []float64, buf []byte) error {
	f, dim, nnz, err := header(buf)
	if err != nil {
		return err
	}
	switch f {
	case FormatBitmap:
		return denseBitmap(out, buf, dim, nnz)
	case FormatPairs64:
		return densePairs64(out, buf, dim, nnz)
	case FormatPairsBF16:
		return denseBF16(out, buf, dim, nnz)
	default:
		return retiredError(f)
	}
}

// header reads buf's header — format byte, dim and nnz — and refuses a
// truncated one or an nnz above dim. The format byte is the caller's to
// check.
func header(buf []byte) (f Format, dim, nnz int, err error) {
	if len(buf) < headerSize {
		return 0, 0, 0, fmt.Errorf("encoding: truncated header")
	}
	f = Format(buf[0])
	dim = int(binary.LittleEndian.Uint32(buf[1:5]))
	nnz = int(binary.LittleEndian.Uint32(buf[5:9]))
	if nnz > dim {
		return 0, 0, 0, fmt.Errorf("encoding: nnz %d exceeds dim %d", nnz, dim)
	}
	return f, dim, nnz, nil
}

// retiredNames names the retired format bytes, so a peer still on one
// is refused by name.
var retiredNames = map[Format]string{
	0: "float32 pairs",
	2: "float32 dense",
	3: "delta-varint",
	4: "12-byte uint32 index + float64 pairs",
	5: "binary16 pairs",
	7: "int8 pairs",
}

// retiredError refuses a format byte no kept format has.
func retiredError(f Format) error {
	if name, ok := retiredNames[f]; ok {
		return fmt.Errorf("encoding: retired format byte %d (%s)", int(f), name)
	}
	return fmt.Errorf("encoding: unknown format byte %d", int(f))
}

// checkDenseDim refuses a dense destination whose length is not the
// payload's dim.
func checkDenseDim(out []float64, dim int) error {
	if len(out) != dim {
		return fmt.Errorf("encoding: payload dim %d, dense destination has %d elements", dim, len(out))
	}
	return nil
}
