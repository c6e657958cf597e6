package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecode drives Decode with arbitrary buffers: it must never panic,
// must reject malformed and truncated input with a clean error, and any
// buffer it accepts must decode to a Sparse that satisfies the package
// invariants and re-encodes to the same bytes in its own format.
func FuzzDecode(f *testing.F) {
	s, err := tensor.NewSparse(64, []int32{0, 3, 17, 40, 63}, []float64{1, -2.5, 0.25, 3, -4})
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: one valid encoding per format, plus a truncation and a
	// header corruption of each so the fuzzer starts at the error paths.
	for _, format := range []Format{FormatPairs, FormatBitmap, FormatDense, FormatDeltaVarint,
		FormatPairs64, FormatPairsF16, FormatPairsBF16, FormatPairsI8} {
		buf, err := Encode(s, format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
		bad := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(bad[5:9], 1<<31) // hostile nnz
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(FormatDeltaVarint), 255, 255, 255, 255, 255, 255, 255, 255})
	// Hostile int8 scale fields: NaN, +Inf and negative steps must all be
	// rejected before any value is materialised.
	for _, scale := range []float32{float32(math.NaN()), float32(math.Inf(1)), -1} {
		buf, err := Encode(s, FormatPairsI8)
		if err != nil {
			f.Fatal(err)
		}
		bad := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(bad[9:13], math.Float32bits(scale))
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := Decode(buf)
		if err != nil {
			if s != nil {
				t.Fatal("non-nil Sparse alongside error")
			}
			return
		}
		if s.NNZ() > s.Dim {
			t.Fatalf("decoded nnz %d exceeds dim %d", s.NNZ(), s.Dim)
		}
		prev := int32(-1)
		for _, j := range s.Idx {
			if j <= prev || int(j) >= s.Dim {
				t.Fatalf("decoded indices invalid: %v (dim %d)", s.Idx, s.Dim)
			}
			prev = j
		}
		// Accepted buffers must round-trip bytewise through their own
		// format. Three exemptions: the dense format re-derives nnz from
		// the payload, NaN payload bits are not preserved through the
		// float32<->float64 conversions of the lossy formats (signaling
		// NaNs quiet on conversion), and the int8 format's re-encode
		// derives a fresh absmax step from the decoded values, which need
		// not match an arbitrary accepted step (e.g. a subnormal step whose
		// ideal replacement differs after rounding).
		format := Format(buf[0])
		for _, v := range s.Vals {
			if math.IsNaN(v) {
				return
			}
		}
		re, err := Encode(s, format)
		if err != nil {
			t.Fatalf("re-encode of accepted buffer failed: %v", err)
		}
		if format != FormatDense && format != FormatPairsI8 && !bytes.Equal(re, buf) {
			t.Fatalf("format %d: re-encode differs from accepted input", format)
		}
	})
}

// FuzzEncodeToDecodeIntoReuse targets the reused-buffer fast paths with
// deliberately dirty scratch: the decode target is pre-filled with stale
// pairs and the encode destination with stale bytes, then every result is
// cross-checked against the allocating paths. Any divergence is an
// aliasing or stale-data bug — exactly the class of defect buffer reuse
// can introduce silently.
func FuzzEncodeToDecodeIntoReuse(f *testing.F) {
	s, err := tensor.NewSparse(64, []int32{0, 3, 17, 40, 63}, []float64{1, -2.5, 0.25, 3, -4})
	if err != nil {
		f.Fatal(err)
	}
	for _, format := range []Format{FormatPairs, FormatBitmap, FormatDense, FormatDeltaVarint,
		FormatPairs64, FormatPairsF16, FormatPairsBF16, FormatPairsI8} {
		buf, err := Encode(s, format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{})
	for _, bad := range hostileBitmaps(f) {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		fresh, freshErr := Decode(buf)

		// Decode into storage polluted by a previous unrelated decode.
		dirty := &tensor.Sparse{Dim: 999, Idx: []int32{5, 6, 900}, Vals: []float64{math.NaN(), 7, -1}}
		intoErr := DecodeInto(dirty, buf)
		if (freshErr == nil) != (intoErr == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", freshErr, intoErr)
		}
		if freshErr != nil {
			return
		}
		if dirty.Dim != fresh.Dim || dirty.NNZ() != fresh.NNZ() {
			t.Fatalf("DecodeInto shape (%d,%d) != Decode shape (%d,%d)",
				dirty.Dim, dirty.NNZ(), fresh.Dim, fresh.NNZ())
		}
		for i := range fresh.Idx {
			if dirty.Idx[i] != fresh.Idx[i] ||
				math.Float64bits(dirty.Vals[i]) != math.Float64bits(fresh.Vals[i]) {
				t.Fatalf("DecodeInto element %d = (%d,%v), Decode = (%d,%v): stale data leaked",
					i, dirty.Idx[i], dirty.Vals[i], fresh.Idx[i], fresh.Vals[i])
			}
		}

		// Re-encode the decoded vector in every format through a reused,
		// garbage-prefilled destination buffer, twice back to back: both
		// passes must match the allocating Encode bytewise (the second
		// pass catches stale state the first one left behind, e.g. bitmap
		// bits or varint tails surviving a shorter re-encode).
		for _, format := range []Format{FormatPairs, FormatBitmap, FormatDense, FormatDeltaVarint,
			FormatPairs64, FormatPairsF16, FormatPairsBF16, FormatPairsI8} {
			want, err := Encode(fresh, format)
			if err != nil {
				t.Fatalf("format %d: Encode failed: %v", format, err)
			}
			reuse := bytes.Repeat([]byte{0xAA}, 7) // dirty, oddly-sized seed capacity
			for pass := 0; pass < 2; pass++ {
				reuse, err = EncodeTo(reuse[:0], fresh, format)
				if err != nil {
					t.Fatalf("format %d pass %d: EncodeTo failed: %v", format, pass, err)
				}
				if !bytes.Equal(reuse, want) {
					t.Fatalf("format %d pass %d: EncodeTo differs from Encode", format, pass)
				}
			}
			// And the reused wire must decode back into reused storage to
			// the same vector.
			if err := DecodeInto(dirty, reuse); err != nil {
				t.Fatalf("format %d: DecodeInto of EncodeTo output failed: %v", format, err)
			}
		}
	})
}

// hostileBitmaps returns bitmap payloads the word-at-a-time decoder must
// refuse: one whose bitmap holds more set bits than its header claims (in
// a whole word, and in the byte tail) and one with padding bits set past
// dim. dim = 77 gives one 64-bit word plus two tail bytes.
func hostileBitmaps(tb testing.TB) [][]byte {
	tb.Helper()
	s, err := tensor.NewSparse(77, []int32{2, 40, 70}, []float64{1, 2, 3})
	if err != nil {
		tb.Fatal(err)
	}
	good, err := Encode(s, FormatBitmap)
	if err != nil {
		tb.Fatal(err)
	}
	mutate := func(byteAt int, or byte) []byte {
		bad := append([]byte(nil), good...)
		bad[headerSize+byteAt] |= or
		return bad
	}
	return [][]byte{
		mutate(3, 0xFF), // popcount exceeds the header inside the word
		mutate(8, 0x0F), // ... and inside the byte tail
		mutate(9, 0x80), // padding bit 79 set, dim is 77
	}
}
