package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Quantized pair formats: same (uint32 index, value) layout as
// FormatPairs but with the value narrowed below float32. They stack on
// top of k-selection — the sparsifier decides *which* values ship, the
// quantizer decides *how wide* — and the error-feedback wrapper in
// internal/compress absorbs the quantization residual exactly as it
// absorbs the sparsification residual, so narrower wire values trade
// per-step noise (corrected over time) for bytes, not convergence.
const (
	// FormatPairsF16 encodes (uint32 index, IEEE 754 binary16 value): 6
	// bytes per non-zero. Values are converted float64 -> float32 (Go's
	// round-to-nearest-even) -> binary16 (again round-to-nearest-even);
	// the double rounding is deterministic and documented as part of the
	// wire contract. Out-of-range magnitudes overflow to ±Inf exactly as
	// IEEE conversion does.
	FormatPairsF16 Format = 5
	// FormatPairsBF16 encodes (uint32 index, bfloat16 value): 6 bytes per
	// non-zero. bfloat16 keeps float32's exponent range with an 8-bit
	// mantissa, so it never overflows where float32 didn't — the usual
	// trade against binary16's extra mantissa bits.
	FormatPairsBF16 Format = 6
	// FormatPairsI8 encodes one float32 step s after the header, then
	// (uint32 index, int8 quantum) per non-zero: 9 + 4 + 5k bytes. The
	// encoder sets s = float32(absmax/127) over the finite values and
	// stores q = clamp(roundEven(v/s), -127, 127); the decoder returns
	// exactly float64(q)*float64(s) (an exact product: |q| <= 127 and a
	// float32 step both fit a float64 mantissa with room to spare, so
	// decoding is bit-reproducible everywhere). NaN encodes as 0, ±Inf
	// saturates to ±127; if s is 0 (all-zero or no finite values) every
	// quantum is forced to 0.
	FormatPairsI8 Format = 7
)

// PairsF16Size returns the encoded size in bytes of k non-zeros of a
// d-dimensional vector in binary16 pair format.
func PairsF16Size(d, k int) int { return headerSize + 6*k }

// PairsBF16Size returns the encoded size in bytes in bfloat16 pair format.
func PairsBF16Size(d, k int) int { return headerSize + 6*k }

// PairsI8Size returns the encoded size in bytes in absmax-scaled int8
// pair format: header, one float32 step, then 5 bytes per non-zero.
func PairsI8Size(d, k int) int { return headerSize + 4 + 5*k }

// f32ToF16 converts float32 to IEEE 754 binary16 with
// round-to-nearest-even, the hardware conversion semantics.
func f32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & 0x8000)
	exp := int((b >> 23) & 0xFF)
	mant := b & 0x007FFFFF
	if exp == 0xFF { // Inf or NaN
		if mant != 0 {
			return sign | 0x7E00 // canonical quiet NaN
		}
		return sign | 0x7C00
	}
	e := exp - 127 + 15
	if e >= 0x1F {
		return sign | 0x7C00 // overflow to Inf
	}
	if e <= 0 {
		// Subnormal binary16 (or underflow to zero). Shift the mantissa
		// with its implicit bit right, rounding to nearest even.
		if e < -10 {
			return sign
		}
		m := mant | 0x00800000
		shift := uint(14 - e) // 14..24
		half := uint32(1) << (shift - 1)
		return sign | uint16((m+half-1+((m>>shift)&1))>>shift)
	}
	// Normal: round 23-bit mantissa to 10 bits; a carry out of the
	// mantissa propagates into the exponent by the addition below,
	// including the carry from 0x1E to the Inf encoding.
	rounded := (mant + 0xFFF + ((mant >> 13) & 1)) >> 13
	return sign | uint16(uint32(e)<<10+rounded)
}

// f16ToF32 converts IEEE 754 binary16 to float32 exactly (binary16 is a
// subset of float32, so no rounding occurs).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0x1F: // Inf or NaN
		if mant != 0 {
			return math.Float32frombits(sign | 0x7FC00000)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal binary16: normalize into a float32 normal.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3FF)<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

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

// i8Step computes the FormatPairsI8 step for a value stream: absmax over
// the finite values divided by 127, rounded to float32. A zero absmax
// (all zeros, or nothing finite) yields step 0, which forces every
// quantum to 0; an absmax so large that float32(absmax/127) overflows
// clamps to MaxFloat32 so the stored step stays finite.
func i8Step(vals []float64) float32 {
	absmax := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > absmax && !math.IsInf(v, 0) {
			// NaN fails a > absmax on its own; only Inf needs the guard.
			absmax = a
		}
	}
	if absmax == 0 {
		return 0
	}
	s := float32(absmax / 127)
	if math.IsInf(float64(s), 0) {
		return math.MaxFloat32
	}
	return s
}

// quantizeI8 maps one value onto the int8 grid with the given step:
// clamp(roundEven(v/step), -127, 127), with NaN -> 0, ±Inf -> ±127, and
// everything -> 0 when step is 0. -128 is never produced, keeping the
// grid symmetric.
func quantizeI8(v float64, step float32) int8 {
	if step == 0 || math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return 127
	}
	if math.IsInf(v, -1) {
		return -127
	}
	q := math.RoundToEven(v / float64(step))
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

func appendPairsF16(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, PairsF16Size(s.Dim, s.NNZ()))
	putHeader(buf, FormatPairsF16, s.Dim, s.NNZ())
	off := headerSize
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		binary.LittleEndian.PutUint16(buf[off+4:], f32ToF16(float32(s.Vals[i])))
		off += 6
	}
	return dst
}

func decodePairsF16(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != PairsF16Size(dim, nnz) {
		return fmt.Errorf("encoding: pairs-f16 size %d, want %d", len(buf), PairsF16Size(dim, nnz))
	}
	s.Reset(dim)
	s.Grow(nnz)
	off := headerSize
	for i := 0; i < nnz; i++ {
		j := int32(binary.LittleEndian.Uint32(buf[off:]))
		v := float64(f16ToF32(binary.LittleEndian.Uint16(buf[off+4:])))
		s.Append(j, v)
		off += 6
	}
	return s.Validate()
}

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

func appendPairsI8(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, PairsI8Size(s.Dim, s.NNZ()))
	putHeader(buf, FormatPairsI8, s.Dim, s.NNZ())
	step := i8Step(s.Vals)
	binary.LittleEndian.PutUint32(buf[headerSize:], math.Float32bits(step))
	off := headerSize + 4
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		buf[off+4] = byte(quantizeI8(s.Vals[i], step))
		off += 5
	}
	return dst
}

func decodePairsI8(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	if len(buf) != PairsI8Size(dim, nnz) {
		return fmt.Errorf("encoding: pairs-i8 size %d, want %d", len(buf), PairsI8Size(dim, nnz))
	}
	step := math.Float32frombits(binary.LittleEndian.Uint32(buf[headerSize:]))
	if math.IsNaN(float64(step)) || math.IsInf(float64(step), 0) || step < 0 {
		return fmt.Errorf("encoding: pairs-i8 step %v not a finite non-negative float", step)
	}
	s.Reset(dim)
	s.Grow(nnz)
	off := headerSize + 4
	for i := 0; i < nnz; i++ {
		j := int32(binary.LittleEndian.Uint32(buf[off:]))
		v := float64(int8(buf[off+4])) * float64(step)
		s.Append(j, v)
		off += 5
	}
	return s.Validate()
}

// RoundTripValues applies format f's value narrowing to vals in place:
// after the call, vals holds exactly what a receiver would decode. This
// is what the error-feedback wrapper uses to pre-absorb the quantization
// residual — it must match the encode+decode pipeline bit for bit, so
// every branch here calls the same conversion helpers the wire path
// does. FormatPairs64 is the identity (lossless); FormatPairsI8 shares
// the encoder's absmax step, so the round trip is exact only for the
// whole value stream an encoder sees at once — which is how every
// selection is encoded.
func RoundTripValues(f Format, vals []float64) error {
	switch f {
	case FormatPairs, FormatBitmap, FormatDense, FormatDeltaVarint:
		for i, v := range vals {
			vals[i] = float64(float32(v))
		}
	case FormatPairs64:
		// lossless
	case FormatPairsF16:
		for i, v := range vals {
			vals[i] = float64(f16ToF32(f32ToF16(float32(v))))
		}
	case FormatPairsBF16:
		for i, v := range vals {
			vals[i] = float64(bf16ToF32(f32ToBF16(float32(v))))
		}
	case FormatPairsI8:
		step := i8Step(vals)
		for i, v := range vals {
			vals[i] = float64(quantizeI8(v, step)) * float64(step)
		}
	default:
		return fmt.Errorf("encoding: unknown format %d", f)
	}
	return nil
}
