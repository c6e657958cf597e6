// Package encoding provides the wire formats used to ship sparse and dense
// gradients between workers: (uint32 index, float32 value) pair encoding,
// a bitmap+values encoding that wins at moderate densities, dense float32
// encoding for the no-compression baseline, delta-varint index gaps, a
// lossless float64 pair format for bit-exact cluster training, quantized
// pair formats (binary16, bfloat16, absmax-scaled int8) that narrow the
// value below float32, and exact size accounting that the network cost
// model and the instrumented cluster transport both consume.
//
// Exact encoded sizes, for a d-dimensional vector with k stored
// non-zeros (every format starts with the 9-byte header: 1 format byte,
// uint32 dim, uint32 nnz):
//
//	Format           Size in bytes      Value width
//	FormatPairs      9 + 8k             float32 (4 B) + uint32 index
//	FormatBitmap     9 + ceil(d/8)+4k   float32 (4 B) + d-bit bitmap
//	FormatDense      9 + 4d             float32 (4 B), all d positions
//	FormatDeltaVarint 9 + 4k + gaps     float32 (4 B) + varint index gaps
//	                                    (data-dependent, <= 9+9k)
//	FormatPairs64    9 + 12k            float64 (8 B) + uint32 index, lossless
//	FormatPairsF16   9 + 6k             binary16 (2 B) + uint32 index
//	FormatPairsBF16  9 + 6k             bfloat16 (2 B) + uint32 index
//	FormatPairsI8    9 + 4 + 5k         int8 (1 B) + uint32 index,
//	                                    one shared float32 step
//
// Size returns these closed forms programmatically; BestFormat picks the
// smallest format that preserves a requested value precision.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Format identifies a gradient wire format.
type Format int

const (
	// FormatPairs encodes (uint32 index, float32 value) per non-zero: 8
	// bytes each. Best for aggressive sparsity.
	FormatPairs Format = iota
	// FormatBitmap encodes a d-bit presence bitmap plus packed float32
	// values: d/8 + 4k bytes. Wins when density exceeds ~1/16.
	FormatBitmap
	// FormatDense encodes all d values as float32: 4d bytes.
	FormatDense
)

// String implements fmt.Stringer; the names appear in reports and
// telemetry attributions.
func (f Format) String() string {
	switch f {
	case FormatPairs:
		return "pairs"
	case FormatBitmap:
		return "bitmap"
	case FormatDense:
		return "dense"
	case FormatDeltaVarint:
		return "delta-varint"
	case FormatPairs64:
		return "pairs64"
	case FormatPairsF16:
		return "pairs-f16"
	case FormatPairsBF16:
		return "pairs-bf16"
	case FormatPairsI8:
		return "pairs-i8"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// header layout: 1 byte format, 4 bytes dim, 4 bytes nnz.
const headerSize = 9

// PairsSize returns the encoded size in bytes of k non-zeros of a
// d-dimensional vector in pair format.
func PairsSize(d, k int) int { return headerSize + 8*k }

// BitmapSize returns the encoded size in bytes in bitmap format.
func BitmapSize(d, k int) int { return headerSize + (d+7)/8 + 4*k }

// DenseSize returns the encoded size in bytes of the dense format.
func DenseSize(d int) int { return headerSize + 4*d }

// Size returns the exact encoded size in bytes of k non-zeros of a
// d-dimensional vector in format f. FormatDeltaVarint has a
// data-dependent size (use the encoded buffer's length) and reports an
// error, as do unknown formats.
func Size(f Format, d, k int) (int, error) {
	switch f {
	case FormatPairs:
		return PairsSize(d, k), nil
	case FormatBitmap:
		return BitmapSize(d, k), nil
	case FormatDense:
		return DenseSize(d), nil
	case FormatPairs64:
		return Pairs64Size(d, k), nil
	case FormatPairsF16:
		return PairsF16Size(d, k), nil
	case FormatPairsBF16:
		return PairsBF16Size(d, k), nil
	case FormatPairsI8:
		return PairsI8Size(d, k), nil
	case FormatDeltaVarint:
		return 0, fmt.Errorf("encoding: delta-varint size is data-dependent")
	default:
		return 0, fmt.Errorf("encoding: unknown format %d", f)
	}
}

// precisionClass orders formats by value width for BestFormat: int8 <
// {binary16, bfloat16} < float32 < float64. binary16 and bfloat16 share
// a class because neither is uniformly more precise than the other
// (binary16 has more mantissa bits, bfloat16 more exponent range).
func precisionClass(f Format) int {
	switch f {
	case FormatPairsI8:
		return 0
	case FormatPairsF16, FormatPairsBF16:
		return 1
	case FormatPairs64:
		return 3
	default: // float32 value formats
		return 2
	}
}

// atLeastAsPrecise reports whether candidate preserves at least the
// value precision of value. Within the 16-bit class only the identical
// format qualifies, since binary16 and bfloat16 are not ordered.
func atLeastAsPrecise(candidate, value Format) bool {
	cc, vc := precisionClass(candidate), precisionClass(value)
	if cc != vc {
		return cc > vc
	}
	if cc == 1 {
		return candidate == value
	}
	return true
}

// BestFormat returns the smallest data-independent-size format for the
// given dimension and non-zero count that preserves at least the value
// precision of the value format, with its exact size in bytes. Callers
// that only care about float32 precision (the historical assumption)
// pass FormatPairs; passing FormatPairsI8 lets the quantized formats
// compete, and passing FormatPairs64 always yields FormatPairs64.
// FormatDeltaVarint never wins (its size is data-dependent).
func BestFormat(d, k int, value Format) (Format, int) {
	candidates := [...]struct {
		f Format
		s int
	}{
		{FormatPairsI8, PairsI8Size(d, k)},
		{FormatPairsF16, PairsF16Size(d, k)},
		{FormatPairsBF16, PairsBF16Size(d, k)},
		{FormatPairs, PairsSize(d, k)},
		{FormatBitmap, BitmapSize(d, k)},
		{FormatDense, DenseSize(d)},
		{FormatPairs64, Pairs64Size(d, k)},
	}
	best, size := Format(-1), 0
	for _, c := range candidates {
		if !atLeastAsPrecise(c.f, value) {
			continue
		}
		if best < 0 || c.s < size {
			best, size = c.f, c.s
		}
	}
	return best, size
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
	case FormatPairs:
		return appendPairs(dst, s), nil
	case FormatBitmap:
		return appendBitmap(dst, s), nil
	case FormatDense:
		return appendDense(dst, s), nil
	case FormatDeltaVarint:
		return appendDeltaVarint(dst, s), nil
	case FormatPairs64:
		return appendPairs64(dst, s), nil
	case FormatPairsF16:
		return appendPairsF16(dst, s), nil
	case FormatPairsBF16:
		return appendPairsBF16(dst, s), nil
	case FormatPairsI8:
		return appendPairsI8(dst, s), nil
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

func appendPairs(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, PairsSize(s.Dim, s.NNZ()))
	putHeader(buf, FormatPairs, s.Dim, s.NNZ())
	off := headerSize
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(float32(s.Vals[i])))
		off += 8
	}
	return dst
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

func appendDense(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, DenseSize(s.Dim))
	putHeader(buf, FormatDense, s.Dim, s.NNZ())
	// Scatter directly into the wire buffer: positions without a stored
	// element encode float32(0), which is exactly the 4 zero bytes the
	// cleared window holds.
	vals := buf[headerSize:]
	clear(vals)
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(vals[4*int(j):], math.Float32bits(float32(s.Vals[i])))
	}
	return dst
}

// Decode deserialises a gradient encoded by Encode. All formats except
// FormatPairs64 round-trip values through float32, matching the precision
// real systems transmit. Decode never panics on malformed input: header
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
	case FormatPairs:
		return decodePairs(s, buf, dim, nnz)
	case FormatBitmap:
		return decodeBitmap(s, buf, dim, nnz)
	case FormatDense:
		return decodeDense(s, buf, dim, nnz)
	case FormatDeltaVarint:
		return decodeDeltaVarint(s, buf, dim, nnz)
	case FormatPairs64:
		return decodePairs64(s, buf, dim, nnz)
	case FormatPairsF16:
		return decodePairsF16(s, buf, dim, nnz)
	case FormatPairsBF16:
		return decodePairsBF16(s, buf, dim, nnz)
	case FormatPairsI8:
		return decodePairsI8(s, buf, dim, nnz)
	default:
		return fmt.Errorf("encoding: unknown format byte %d", buf[0]) //sidco:alloc corrupt-input error path, not steady state
	}
}

func decodePairs(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != PairsSize(dim, nnz) {
		return fmt.Errorf("encoding: pairs size %d, want %d", len(buf), PairsSize(dim, nnz))
	}
	s.Reset(dim)
	s.Grow(nnz)
	off := headerSize
	for i := 0; i < nnz; i++ {
		j := int32(binary.LittleEndian.Uint32(buf[off:]))
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4:])))
		s.Append(j, v)
		off += 8
	}
	// The index stream is untrusted wire data; re-establish the Sparse
	// invariant exactly as the allocating path's NewSparse did.
	return s.Validate()
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

func decodeDense(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != DenseSize(dim) {
		return fmt.Errorf("encoding: dense size %d, want %d", len(buf), DenseSize(dim))
	}
	s.Reset(dim)
	s.Grow(nnz)
	off := headerSize
	for j := 0; j < dim; j++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if v != 0 {
			s.Append(int32(j), float64(v))
		}
	}
	return nil
}
