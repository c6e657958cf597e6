package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// keptFormats are the formats Encode and DecodeInto accept.
var keptFormats = []Format{FormatBitmap, FormatPairs64, FormatPairsBF16}

// FuzzDecode drives Decode with arbitrary buffers: it must never panic,
// must reject malformed and truncated input and every retired format
// byte with a clean error, and any buffer it accepts must decode to a
// Sparse that satisfies the package invariants and re-encodes to the same
// bytes in its own format.
func FuzzDecode(f *testing.F) {
	s, err := tensor.NewSparse(64, []int32{0, 3, 17, 40, 63}, []float64{1, -2.5, 0.25, 3, -4})
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: one valid encoding per format, plus a truncation and a
	// header corruption of each so the fuzzer starts at the error paths;
	// the same three of each retired format, which must all be refused.
	for _, buf := range seedFrames(f, s) {
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
		bad := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(bad[5:9], 1<<31) // hostile nnz
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{3, 255, 255, 255, 255, 255, 255, 255, 255}) // a retired header alone
	for _, bad := range hostileBitmaps(f) {
		f.Add(bad)
	}
	for _, buf := range pairs64Seeds(f) {
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := Decode(buf)
		if err == nil && retired(buf[0]) {
			t.Fatalf("retired format byte %d decoded", buf[0])
		}
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
		// format, NaN payloads included on the lossless wire. The lossy
		// formats do not keep them through their float32<->float64
		// conversions (signaling NaNs quiet on conversion).
		format := Format(buf[0])
		for _, v := range s.Vals {
			if math.IsNaN(v) && format != FormatPairs64 {
				return
			}
		}
		re, err := Encode(s, format)
		if err != nil {
			t.Fatalf("re-encode of accepted buffer failed: %v", err)
		}
		if !bytes.Equal(re, buf) {
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
	for _, buf := range seedFrames(f, s) {
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{})
	for _, bad := range hostileBitmaps(f) {
		f.Add(bad)
	}
	for _, buf := range pairs64Seeds(f) {
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		fresh, freshErr := Decode(buf)
		if freshErr == nil && retired(buf[0]) {
			t.Fatalf("retired format byte %d decoded", buf[0])
		}

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
		// bits surviving a shorter re-encode).
		for _, format := range keptFormats {
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

// pairs64Seeds returns lossless frames at the edges of the layout, k in
// {0, 1, d} at dims below 64 (L = 0 at k = d), then every hostile
// lossless frame.
func pairs64Seeds(tb testing.TB) [][]byte {
	tb.Helper()
	var frames [][]byte
	for _, c := range []struct{ dim, k int }{{0, 0}, {1, 1}, {5, 0}, {5, 1}, {5, 5}, {63, 1}, {63, 63}, {64, 9}} {
		s := &tensor.Sparse{Dim: c.dim}
		for i := 0; i < c.k; i++ {
			s.Append(int32(c.dim-c.k+i), float64(i)-1.5)
		}
		buf, err := Encode(s, FormatPairs64)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf)
	}
	for _, h := range hostilePairs64Frames(tb) {
		frames = append(frames, h.frame)
	}
	return frames
}

// seedFrames returns s encoded in every kept format, then one frame of
// each retired format.
func seedFrames(tb testing.TB, s *tensor.Sparse) [][]byte {
	tb.Helper()
	var frames [][]byte
	for _, format := range keptFormats {
		buf, err := Encode(s, format)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf)
	}
	for _, rf := range retiredFrames() {
		frames = append(frames, rf.frame)
	}
	return frames
}

// retiredFrame is a frame of a retired format, well formed in that
// format's old layout.
type retiredFrame struct {
	name  string
	frame []byte
}

// retiredFrames returns one frame per retired format byte, each carrying
// the dim-8 vector {1: 1.0, 6: -2.5} in the layout the format had.
func retiredFrames() []retiredFrame {
	le32 := binary.LittleEndian.AppendUint32
	le16 := binary.LittleEndian.AppendUint16
	f32 := func(b []byte, v float32) []byte { return le32(b, math.Float32bits(v)) }
	hdr := func(f byte) []byte { return le32(le32([]byte{f}, 8), 2) }
	dense := hdr(2)
	for _, v := range [8]float32{1: 1, 6: -2.5} {
		dense = f32(dense, v)
	}
	return []retiredFrame{
		// (uint32 index, float32 value) per element.
		{"pairs", f32(le32(f32(le32(hdr(0), 1), 1), 6), -2.5)},
		// all d values as float32.
		{"dense", dense},
		// uvarint index gaps from -1, then the float32 values.
		{"delta-varint", f32(f32(append(hdr(3), 2, 5), 1), -2.5)},
		// (uint32 index, binary16 value): 1.0 is 0x3C00, -2.5 is 0xC100.
		{"pairs-f16", le16(le32(le16(le32(hdr(5), 1), 0x3C00), 6), 0xC100)},
		// a float32 step absmax/127, then (uint32 index, int8 quantum).
		{"pairs-i8", append(le32(append(le32(f32(hdr(7), 2.5/127), 1), 51), 6), 0x81)},
		// (uint32 index, float64 value) per element: the lossless layout
		// before its indices were Elias–Fano coded.
		{"pairs64-12B", appendPairs12(nil, &tensor.Sparse{Dim: 8, Idx: []int32{1, 6}, Vals: []float64{1, -2.5}})},
	}
}

// retired reports whether b is a retired format byte.
func retired(b byte) bool {
	switch b {
	case 0, 2, 3, 4, 5, 7:
		return true
	}
	return false
}
