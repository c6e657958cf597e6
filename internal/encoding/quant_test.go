package encoding

import (
	"math"
	"testing"
)

// TestBF16RoundTripExhaustive walks every bfloat16 bit pattern: decoding
// to float32 and re-encoding must reproduce the pattern exactly (the
// idempotency DecodeInto/EncodeTo reuse paths rely on), except that NaN
// payloads only stay NaN.
func TestBF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		v := bf16ToF32(uint16(h))
		got := f32ToBF16(v)
		isNaN := h&0x7F80 == 0x7F80 && h&0x7F != 0
		if isNaN {
			if got&0x7F80 != 0x7F80 || got&0x7F == 0 {
				t.Fatalf("NaN %#04x decoded+re-encoded to non-NaN %#04x", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("bfloat16 %#04x -> %v -> %#04x, not idempotent", h, v, got)
		}
	}
}

// TestRoundTripValuesMatchesWire checks, for every format,
// that RoundTripValues applied to a copy of the values equals the
// encode+decode pipeline bitwise. This equality is the error-feedback
// wire-exactness contract.
func TestRoundTripValuesMatchesWire(t *testing.T) {
	s := randomSparse(t, 2000, 120, 3)
	for i := range s.Vals {
		// Break the float32-exactness of randomSparse so the lossy formats
		// actually round.
		s.Vals[i] += 1e-9 * float64(i)
	}
	for _, f := range []Format{FormatBitmap, FormatPairs64, FormatPairsBF16} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if got.NNZ() != s.NNZ() {
			t.Fatalf("format %d: nnz %d, want %d", f, got.NNZ(), s.NNZ())
		}
		rt := append([]float64(nil), s.Vals...)
		if err := RoundTripValues(f, rt); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(got.Vals[i]) {
				t.Fatalf("format %d: RoundTripValues[%d]=%v, wire decode=%v", f, i, rt[i], got.Vals[i])
			}
		}
	}
}

// TestQuantizedSizesMatchAccounting pins the closed-form sizes of the
// pair formats and the Size dispatcher against real encodings.
func TestQuantizedSizesMatchAccounting(t *testing.T) {
	s := randomSparse(t, 777, 33, 2)
	for f, want := range map[Format]int{
		FormatPairsBF16: PairsBF16Size(777, 33),
		FormatPairs64:   Pairs64Size(777, 33),
	} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != want {
			t.Errorf("format %d: size %d, want %d", f, len(buf), want)
		}
		if sz, err := Size(f, 777, 33); err != nil || sz != want {
			t.Errorf("Size(%d) = %d, %v; want %d", f, sz, err, want)
		}
	}
}
