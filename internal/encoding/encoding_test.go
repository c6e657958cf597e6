package encoding

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randomSparse(t *testing.T, dim, k int, seed int64) *tensor.Sparse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(dim)[:k]
	idxSet := make(map[int]struct{}, k)
	for _, p := range perm {
		idxSet[p] = struct{}{}
	}
	idx := make([]int32, 0, k)
	for j := 0; j < dim; j++ {
		if _, ok := idxSet[j]; ok {
			idx = append(idx, int32(j))
		}
	}
	vals := make([]float64, len(idx))
	for i := range vals {
		// Values exactly representable in float32 so round-trips compare
		// equal.
		vals[i] = float64(float32(rng.NormFloat64()))
		if vals[i] == 0 {
			vals[i] = 1
		}
	}
	s, err := tensor.NewSparse(dim, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripAllFormats(t *testing.T) {
	s := randomSparse(t, 1000, 50, 1)
	for _, f := range []Format{FormatBitmap, FormatPairs64, FormatPairsBF16} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if got.Dim != s.Dim || got.NNZ() != s.NNZ() {
			t.Fatalf("format %d: dim/nnz mismatch", f)
		}
		want := append([]float64(nil), s.Vals...)
		if err := RoundTripValues(f, want); err != nil {
			t.Fatal(err)
		}
		for i := range s.Idx {
			if got.Idx[i] != s.Idx[i] || got.Vals[i] != want[i] {
				t.Fatalf("format %d: element %d mismatch", f, i)
			}
		}
	}
}

func TestEncodedSizesMatchAccounting(t *testing.T) {
	s := randomSparse(t, 777, 33, 2)
	for f, want := range map[Format]int{
		FormatBitmap: BitmapSize(777, 33),
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

func TestPairs64RoundTripIsLossless(t *testing.T) {
	// Values chosen to NOT be float32-representable: pairs64 must return
	// them bit-for-bit while the float32 bitmap format would perturb them.
	vals := []float64{1e-300, math.Pi, -2.0000000000000004, math.Nextafter(1, 2)}
	s, err := tensor.NewSparse(50, []int32{1, 7, 20, 49}, vals)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Encode(s, FormatPairs64)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != Pairs64Size(50, 4) {
		t.Errorf("size %d, want %d", len(buf), Pairs64Size(50, 4))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got.Vals[i] != vals[i] {
			t.Errorf("value %d: %v != %v (lossy round-trip)", i, got.Vals[i], vals[i])
		}
	}
	// Sanity: the float32 bitmap format really would lose these values.
	lossy, _ := Encode(s, FormatBitmap)
	back, _ := Decode(lossy)
	if back.Vals[0] == vals[0] {
		t.Error("expected float32 round-trip to perturb 1e-300")
	}
}

func TestDecodeRejectsHostileHeaders(t *testing.T) {
	// Headers claiming huge nnz/dim must fail fast without allocating.
	mk := func(f Format, dim, nnz uint32, payload int) []byte {
		buf := make([]byte, 9+payload)
		buf[0] = byte(f)
		binary.LittleEndian.PutUint32(buf[1:5], dim)
		binary.LittleEndian.PutUint32(buf[5:9], nnz)
		return buf
	}
	cases := [][]byte{
		mk(FormatPairs64, 100, 200, 0),                     // nnz > dim
		mk(FormatPairsBF16, 1<<31, 1<<30, 64),              // huge nnz, tiny buffer
		mk(FormatPairs64, 4_000_000_000, 3_000_000_000, 8), // huge lossless claim
		mk(FormatBitmap, 4_000_000_000, 10, 8),             // huge bitmap claim
	}
	for i, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("case %d: hostile header accepted", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil buffer should error")
	}
	if _, err := Decode(make([]byte, 5)); err == nil {
		t.Error("short buffer should error")
	}
	s := randomSparse(t, 100, 10, 3)
	buf, _ := Encode(s, FormatPairs64)
	buf[0] = 99
	if _, err := Decode(buf); err == nil {
		t.Error("bad format byte should error")
	}
	buf[0] = byte(FormatPairs64)
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload should error")
	}
}

// TestDecodePairs64RefusesWhatValidateRefuses holds the one-loop lossless
// decode to the fill-then-Validate decode it replaced: on index streams
// with a repeat, a descent and an index at and past dim, at the front,
// the middle and the end, the error text is Validate's on the same pairs,
// and a valid stream decodes. A frame carries a descent only inside one
// high part (L = 3 here), and an index past dim only up to the stream's
// one spare high slot: elsewhere the one-bits are those of other indices.
func TestDecodePairs64RefusesWhatValidateRefuses(t *testing.T) {
	const dim = 50
	for _, c := range []struct {
		name string
		idx  []uint64
	}{
		{"valid", []uint64{0, 3, 49}},
		{"repeat at the front", []uint64{4, 4, 9}},
		{"repeat at the end", []uint64{1, 7, 7}},
		{"descent", []uint64{2, 9, 8, 11}},
		{"at dim", []uint64{1, 2, dim}},
		{"past dim, first", []uint64{dim + 7, dim + 8}},
		{"past dim, last", []uint64{3, 63}},
	} {
		vals := make([]float64, len(c.idx))
		ref := tensor.Sparse{Dim: dim}
		for i, j := range c.idx {
			vals[i] = float64(i) + 0.5
			ref.Append(int32(j), vals[i])
		}
		buf, ok := pairs64Frame(dim, c.idx, vals)
		if !ok {
			t.Fatalf("%s: indices %v do not fit a frame", c.name, c.idx)
		}
		want := ref.Validate()
		var s tensor.Sparse
		got := DecodeInto(&s, buf)
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: decode refused a valid stream: %v", c.name, got)
		case want == nil && (len(s.Idx) != len(c.idx) || len(s.Vals) != len(c.idx)):
			t.Errorf("%s: decoded %d indices and %d values, want %d", c.name, len(s.Idx), len(s.Vals), len(c.idx))
		case want != nil && (got == nil || got.Error() != want.Error()):
			t.Errorf("%s: decode says %v, Validate %v", c.name, got, want)
		}
	}
}

// TestDecodeRefusesRetiredFormats: a frame of a retired format, well
// formed in its old layout, is refused by DecodeInto before anything is
// decoded into the target, and no other entry point takes the byte.
func TestDecodeRefusesRetiredFormats(t *testing.T) {
	for _, rf := range retiredFrames() {
		t.Run(rf.name, func(t *testing.T) {
			f := Format(rf.frame[0])
			if !retired(rf.frame[0]) {
				t.Fatalf("format byte %d is not in the retired set", f)
			}
			s := &tensor.Sparse{Dim: 3, Idx: []int32{1}, Vals: []float64{9}}
			if err := DecodeInto(s, rf.frame); err == nil {
				t.Fatal("retired format decoded")
			}
			if s.Dim != 3 || len(s.Idx) != 1 || s.Idx[0] != 1 || len(s.Vals) != 1 || s.Vals[0] != 9 {
				t.Fatalf("the refused frame was decoded into the target: %+v", s)
			}
			if _, err := Size(f, 8, 2); err == nil {
				t.Error("Size accepts the retired format")
			}
			if _, err := Encode(s, f); err == nil {
				t.Error("Encode accepts the retired format")
			}
			if err := RoundTripValues(f, []float64{1}); err == nil {
				t.Error("RoundTripValues accepts the retired format")
			}
		})
	}
}

func TestEncodeUnknownFormat(t *testing.T) {
	s := randomSparse(t, 10, 2, 4)
	if _, err := Encode(s, Format(42)); err == nil {
		t.Error("unknown format should error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, dimRaw, kRaw uint16) bool {
		dim := int(dimRaw%2000) + 1
		k := int(kRaw) % (dim + 1)
		if k == 0 {
			k = 1
		}
		if k > dim {
			k = dim
		}
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int32, 0, k)
		vals := make([]float64, 0, k)
		for j := 0; j < dim && len(idx) < k; j++ {
			if rng.Float64() < float64(k)/float64(dim)*2 {
				idx = append(idx, int32(j))
				v := float64(float32(rng.NormFloat64()))
				if v == 0 {
					v = 1
				}
				vals = append(vals, v)
			}
		}
		if len(idx) == 0 {
			return true
		}
		s, err := tensor.NewSparse(dim, idx, vals)
		if err != nil {
			return false
		}
		for _, format := range []Format{FormatBitmap, FormatPairs64} {
			buf, err := Encode(s, format)
			if err != nil {
				return false
			}
			got, err := Decode(buf)
			if err != nil || got.NNZ() != s.NNZ() {
				return false
			}
			for i := range s.Idx {
				if got.Idx[i] != s.Idx[i] || math.Abs(got.Vals[i]-s.Vals[i]) > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// naiveBitmapIndices is the bit-at-a-time walk decodeBitmap replaced,
// kept as the reference for the word-at-a-time one.
func naiveBitmapIndices(bitmap []byte, dim int) []int32 {
	var idx []int32
	for j := 0; j < dim; j++ {
		if bitmap[j/8]&(1<<(uint(j)%8)) != 0 {
			idx = append(idx, int32(j))
		}
	}
	return idx
}

func TestDecodeBitmapMatchesBitwiseWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{0, 1, 7, 8, 9, 63, 64, 65, 77, 128, 1000, 269467} {
		for _, fill := range []float64{0, 0.1, 0.5, 1} {
			s := &tensor.Sparse{Dim: dim}
			for j := 0; j < dim; j++ {
				if rng.Float64() < fill {
					s.Append(int32(j), float64(float32(rng.NormFloat64())))
				}
			}
			buf, err := Encode(s, FormatBitmap)
			if err != nil {
				t.Fatal(err)
			}
			got := &tensor.Sparse{Dim: 3, Idx: []int32{1}, Vals: []float64{9}}
			if err := DecodeInto(got, buf); err != nil {
				t.Fatalf("dim %d fill %v: %v", dim, fill, err)
			}
			want := naiveBitmapIndices(buf[headerSize:headerSize+(dim+7)/8], dim)
			if len(got.Idx) != len(want) || len(got.Vals) != len(want) {
				t.Fatalf("dim %d fill %v: decoded %d indices, bitwise walk %d", dim, fill, len(got.Idx), len(want))
			}
			for i := range want {
				if got.Idx[i] != want[i] || got.Vals[i] != s.Vals[i] {
					t.Fatalf("dim %d fill %v: element %d = (%d, %v), want (%d, %v)", dim, fill, i, got.Idx[i], got.Vals[i], want[i], s.Vals[i])
				}
			}
		}
	}
}

// TestDecodeBitmapRefusesHostile checks the rejections survive the
// rewrite, and that a bitmap with more bits than its header claims is
// refused before the index storage outgrows the claim.
func TestDecodeBitmapRefusesHostile(t *testing.T) {
	for i, bad := range hostileBitmaps(t) {
		s := &tensor.Sparse{}
		if err := DecodeInto(s, bad); err == nil {
			t.Fatalf("hostile bitmap %d accepted", i)
		}
		if nnz := int(binary.LittleEndian.Uint32(bad[5:9])); cap(s.Idx) > nnz {
			t.Fatalf("hostile bitmap %d grew the index storage to %d, header claims %d", i, cap(s.Idx), nnz)
		}
	}
}
