package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FormatPairsBF16 encodes (uint32 index, bfloat16 value): 6 bytes per
// non-zero. Values are converted float64 -> float32 (Go's
// round-to-nearest-even) -> bfloat16 (again round-to-nearest-even); the
// double rounding is deterministic and part of the wire contract.
// bfloat16 keeps float32's exponent range with an 8-bit mantissa, so it
// never overflows where float32 didn't. It stacks on top of k-selection:
// the sparsifier decides *which* values ship, the format *how wide*, and
// the error-feedback wrapper in internal/compress absorbs the rounding
// residual exactly as it absorbs the sparsification residual.
const FormatPairsBF16 Format = 6

// PairsBF16Size returns the encoded size in bytes in bfloat16 pair format.
func PairsBF16Size(d, k int) int { return headerSize + 6*k }

// f32ToBF16 converts float32 to bfloat16 with round-to-nearest-even.
func f32ToBF16(f float32) uint16 {
	b := math.Float32bits(f)
	if b&0x7FFFFFFF > 0x7F800000 {
		// NaN: truncation could round a signalling pattern to Inf; force a
		// quiet bit instead.
		return uint16(b>>16) | 0x0040
	}
	return uint16((b + 0x7FFF + ((b >> 16) & 1)) >> 16)
}

// bf16ToF32 converts bfloat16 to float32 exactly.
func bf16ToF32(h uint16) float32 { return math.Float32frombits(uint32(h) << 16) }

func appendPairsBF16(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, PairsBF16Size(s.Dim, s.NNZ()))
	putHeader(buf, FormatPairsBF16, s.Dim, s.NNZ())
	off := headerSize
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		binary.LittleEndian.PutUint16(buf[off+4:], f32ToBF16(float32(s.Vals[i])))
		off += 6
	}
	return dst
}

func decodePairsBF16(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != PairsBF16Size(dim, nnz) {
		return fmt.Errorf("encoding: pairs-bf16 size %d, want %d", len(buf), PairsBF16Size(dim, nnz))
	}
	s.Reset(dim)
	s.Grow(nnz)
	off := headerSize
	for i := 0; i < nnz; i++ {
		j := int32(binary.LittleEndian.Uint32(buf[off:]))
		v := float64(bf16ToF32(binary.LittleEndian.Uint16(buf[off+4:])))
		s.Append(j, v)
		off += 6
	}
	return s.Validate()
}

// denseBF16 is DecodeDenseInto over a bfloat16 pair payload: out is
// cleared and each pair assigned, with the refusals of DecodeInto in the
// same words (size, then indices strictly ascending and below dim).
func denseBF16(out []float64, buf []byte, dim, nnz int) error {
	if want := PairsBF16Size(dim, nnz); len(buf) != want {
		return fmt.Errorf("encoding: pairs-bf16 size %d, want %d", len(buf), want)
	}
	if err := checkDenseDim(out, dim); err != nil {
		return err
	}
	clear(out)
	prev := int32(-1)
	for off := headerSize; off < len(buf); off += 6 {
		j := int32(binary.LittleEndian.Uint32(buf[off:]))
		if j <= prev {
			return fmt.Errorf("tensor: indices not strictly ascending at %d", j)
		}
		if int(j) >= dim {
			return fmt.Errorf("tensor: index %d out of range for dim %d", j, dim)
		}
		out[j] = float64(bf16ToF32(binary.LittleEndian.Uint16(buf[off+4:])))
		prev = j
	}
	return nil
}

// RoundTripValues applies format f's value narrowing to vals in place:
// after the call, vals holds exactly what a receiver would decode. This
// is what the error-feedback wrapper uses to pre-absorb the rounding
// residual — it must match the encode+decode pipeline bit for bit, so
// every branch here calls the same conversions the wire path does.
// FormatPairs64 is the identity (lossless).
func RoundTripValues(f Format, vals []float64) error {
	switch f {
	case FormatBitmap:
		for i, v := range vals {
			vals[i] = float64(float32(v))
		}
	case FormatPairs64:
		// lossless
	case FormatPairsBF16:
		for i, v := range vals {
			vals[i] = float64(bf16ToF32(f32ToBF16(float32(v))))
		}
	default:
		return fmt.Errorf("encoding: unknown format %d", f)
	}
	return nil
}
