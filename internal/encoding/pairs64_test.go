package encoding

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// pairs64Frame lays idx and vals out bit by bit as a lossless payload of
// dim, whatever idx holds (repeats, descents, indices at or past dim). It
// reports false where no frame carries idx: when an index's high part
// falls past the stream's closed-form length, or two indices claim one
// high bit (a high part that descends).
func pairs64Frame(dim int, idx []uint64, vals []float64) ([]byte, bool) {
	k := len(idx)
	buf := make([]byte, Pairs64Size(dim, k))
	buf[0] = byte(FormatPairs64)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(dim))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(k))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	if k == 0 {
		return buf, true
	}
	ef := buf[headerSize+8*k:]
	set := func(p int) { ef[p/8] |= 1 << (p % 8) }
	l := efLowBits(dim, k)
	for i, j := range idx {
		for b := 0; b < l; b++ {
			if j>>b&1 == 1 {
				set(i*l + b)
			}
		}
		h := int(j>>l) + i
		if h >= k+(dim-1)>>l+1 || ef[(k*l+h)/8]>>((k*l+h)%8)&1 == 1 {
			return nil, false
		}
		set(k*l + h)
	}
	return buf, true
}

// pairs12 is the layout byte 4 carried before the lossless format moved
// to Elias–Fano indices: a (uint32 index, float64 value) pair per element.
const pairs12 Format = 4

// appendPairs12 is that layout's encoder, kept to build the retired
// frame and to time the lossless codec against.
func appendPairs12(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, headerSize+12*s.NNZ())
	putHeader(buf, pairs12, s.Dim, s.NNZ())
	off := headerSize
	for i, j := range s.Idx {
		binary.LittleEndian.PutUint32(buf[off:], uint32(j))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(s.Vals[i]))
		off += 12
	}
	return dst
}

// decodePairs12 is that layout's decoder, with the checks it had.
func decodePairs12(s *tensor.Sparse, buf []byte) error {
	_, dim, nnz, err := header(buf)
	if err != nil {
		return err
	}
	if len(buf) != headerSize+12*nnz {
		return fmt.Errorf("encoding: pairs64 size %d, want %d", len(buf), headerSize+12*nnz)
	}
	s.Reset(dim)
	s.Grow(nnz)
	idx, vals := s.Idx[:nnz], s.Vals[:nnz]
	pairs := buf[headerSize:]
	prev := int32(-1)
	for i := range idx {
		j := int32(binary.LittleEndian.Uint32(pairs[12*i:]))
		if j <= prev {
			return fmt.Errorf("tensor: indices not strictly ascending at %d", j)
		}
		if int(j) >= dim {
			return fmt.Errorf("tensor: index %d out of range for dim %d", j, dim)
		}
		idx[i], vals[i] = j, math.Float64frombits(binary.LittleEndian.Uint64(pairs[12*i+4:]))
		prev = j
	}
	s.Idx, s.Vals = idx, vals
	return nil
}

// sampleSparse draws exactly k of dim indices uniformly (selection
// sampling, ascending) with normal values.
func sampleSparse(rng *rand.Rand, dim, k int) *tensor.Sparse {
	s := &tensor.Sparse{Dim: dim}
	for j := 0; j < dim && s.NNZ() < k; j++ {
		if rng.Intn(dim-j) < k-s.NNZ() {
			s.Append(int32(j), rng.NormFloat64())
		}
	}
	return s
}

// uint64s widens a sparse vector's indices for pairs64Frame.
func uint64s(idx []int32) []uint64 {
	out := make([]uint64, len(idx))
	for i, j := range idx {
		out[i] = uint64(j)
	}
	return out
}

// TestPairs64MatchesBitwiseLayout holds the encoder to the bit-at-a-time
// layout and Pairs64Size, and the decoder to the vector encoded, over
// k in {0, 1, d}, dims below and above 64 and every L the sizes give.
func TestPairs64MatchesBitwiseLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 7, 8, 63, 64, 65, 77, 1000, 4099, 1 << 16} {
		for _, k := range []int{0, 1, 2, dim / 100, dim / 7, dim / 2, dim - 1, dim} {
			if k < 0 || k > dim {
				continue
			}
			s := sampleSparse(rng, dim, k)
			want, ok := pairs64Frame(dim, uint64s(s.Idx), s.Vals)
			if !ok {
				t.Fatalf("d=%d k=%d: a valid vector does not fit its frame", dim, k)
			}
			got, err := EncodeTo(bytes.Repeat([]byte{0xAA}, 3), s, FormatPairs64)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[3:], want) {
				t.Fatalf("d=%d k=%d: EncodeTo differs from the bitwise layout", dim, k)
			}
			if sz, err := Size(FormatPairs64, dim, k); err != nil || sz != len(want) {
				t.Fatalf("d=%d k=%d: Size = %d, %v; the frame has %d bytes", dim, k, sz, err, len(want))
			}
			back := &tensor.Sparse{Dim: 3, Idx: []int32{1}, Vals: []float64{9}}
			if err := DecodeInto(back, want); err != nil {
				t.Fatalf("d=%d k=%d: %v", dim, k, err)
			}
			if back.Dim != dim || len(back.Idx) != k || len(back.Vals) != k {
				t.Fatalf("d=%d k=%d: decoded dim %d with %d indices, %d values", dim, k, back.Dim, len(back.Idx), len(back.Vals))
			}
			for i := range s.Idx {
				if back.Idx[i] != s.Idx[i] || math.Float64bits(back.Vals[i]) != math.Float64bits(s.Vals[i]) {
					t.Fatalf("d=%d k=%d: element %d = (%d, %v), want (%d, %v)", dim, k, i, back.Idx[i], back.Vals[i], s.Idx[i], s.Vals[i])
				}
			}
		}
	}
}

// TestPairs64SizeClosedForm pins the closed form at the shapes the step
// benchmark ships: one train-sidco-tcp payload (d = 1 847 306, sidco-e
// at delta = 0.01) and the grad-sidcoe-d2m target (d = 2^21, k = 2097).
func TestPairs64SizeClosedForm(t *testing.T) {
	for _, c := range []struct{ d, k, want int }{
		{1_847_306, 17_354, 9 + 8*17_354 + (17_354*7+1_847_305>>6+1+7)/8},
		{1 << 21, 2097, 9 + 8*2097 + (2097*10+(1<<21-1)>>9+1+7)/8},
		{64, 64, 9 + 8*64 + 16},
		{5, 0, 9},
		{0, 0, 9},
	} {
		if got := Pairs64Size(c.d, c.k); got != c.want {
			t.Errorf("Pairs64Size(%d, %d) = %d, want %d", c.d, c.k, got, c.want)
		}
	}
	if got := Pairs64Size(1_847_306, 17_354); got != 157_634 {
		t.Errorf("a train-sidco-tcp payload is %d B, the package doc says 157 634", got)
	}
}

// TestPairs64EveryFloatClass: the lossless wire moves every float64 bit
// pattern, quiet and signalling NaN payloads, -0, subnormals, ±Inf and
// the extremes included, through DecodeInto and DecodeDenseInto, and
// re-encodes the decoded vector to the same bytes.
func TestPairs64EveryFloatClass(t *testing.T) {
	bitsOf := []uint64{
		0x7FF8000000000000, // quiet NaN
		0x7FF8000000000001, // quiet NaN with a payload
		0xFFF8DEADBEEF0001, // negative quiet NaN with a payload
		0x7FF0000000000001, // signalling NaN
		0x7FF4000000000000, // signalling NaN, high payload bit
		0xFFF0000000000F00, // negative signalling NaN
		0x8000000000000000, // -0
		0x0000000000000001, // smallest subnormal
		0x800FFFFFFFFFFFFF, // largest negative subnormal
		0x0010000000000000, // smallest normal
		0x7FF0000000000000, // +Inf
		0xFFF0000000000000, // -Inf
		0x7FEFFFFFFFFFFFFF, // largest finite
		math.Float64bits(-math.Pi),
	}
	const dim = 40
	s := &tensor.Sparse{Dim: dim}
	for i, b := range bitsOf {
		s.Append(int32(2*i+1), math.Float64frombits(b))
	}
	buf, err := Encode(s, FormatPairs64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, dim)
	if err := DecodeDenseInto(dense, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range bitsOf {
		if g := math.Float64bits(got.Vals[i]); g != b || got.Idx[i] != s.Idx[i] {
			t.Errorf("element %d: decoded (%d, %#016x), want (%d, %#016x)", i, got.Idx[i], g, s.Idx[i], b)
		}
		if g := math.Float64bits(dense[2*i+1]); g != b {
			t.Errorf("element %d: dense decode %#016x, want %#016x", i, g, b)
		}
	}
	re, err := Encode(got, FormatPairs64)
	if err != nil || !bytes.Equal(re, buf) {
		t.Errorf("re-encode of the decoded vector differs (%v)", err)
	}
	rt := append([]float64(nil), s.Vals...)
	if err := RoundTripValues(FormatPairs64, rt); err != nil {
		t.Fatal(err)
	}
	for i, b := range bitsOf {
		if math.Float64bits(rt[i]) != b {
			t.Errorf("RoundTripValues moved element %d to %#016x", i, math.Float64bits(rt[i]))
		}
	}
}

// hostilePairs64 is one lossless frame DecodeInto must refuse, and a
// word its error must hold.
type hostilePairs64 struct {
	name, want string
	frame      []byte
}

// hostilePairs64Frames returns the lossless frames DecodeInto refuses:
// a high stream holding one index more or one fewer than the header, a
// repeated and a descending index, an index at dim and one in the
// stream's spare high slot, a set padding bit, a byte more and a byte
// fewer than the closed form, and a frame of the retired 12-byte pairs.
// dim = 77 and k = 4 give L = 4, a 9-bit high stream and 7 padding bits.
func hostilePairs64Frames(tb testing.TB) []hostilePairs64 {
	tb.Helper()
	const dim = 77
	vals := []float64{1, -2, 3, 4}
	frame := func(idx ...uint64) []byte {
		buf, ok := pairs64Frame(dim, idx, vals)
		if !ok {
			tb.Fatalf("indices %v do not fit a frame", idx)
		}
		return buf
	}
	good := frame(2, 40, 64, 70)
	// The low bits fill bits 0-15 of the index stream; the high parts 0,
	// 2, 4 and 4 set bits 16, 19, 22 and 23 of the high stream's 16-24.
	ef := headerSize + 8*len(vals)
	flip := func(bit int) []byte {
		bad := append([]byte(nil), good...)
		bad[ef+bit/8] ^= 1 << (bit % 8)
		return bad
	}
	s, err := tensor.NewSparse(dim, []int32{2, 40, 64, 70}, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return []hostilePairs64{
		{"one-bit more than nnz", "high bits", flip(17)},
		{"one-bit fewer than nnz", "high bits", flip(23)},
		{"duplicate index", "not strictly ascending", frame(2, 40, 40, 70)},
		{"descending index", "not strictly ascending", frame(2, 40, 39, 70)},
		{"index at dim", "out of range", frame(2, 40, 64, dim)},
		{"index in the spare high slot", "out of range", frame(2, 40, 64, 80)},
		{"padding bit set", "padding", flip(31)},
		{"a byte past the closed form", "size", append(append([]byte(nil), good...), 0)},
		{"a byte short of the closed form", "size", good[:len(good)-1]},
		{"retired 12-byte pairs", "12-byte", appendPairs12(nil, s)},
	}
}

// TestPairs64RefusesHostile: DecodeInto and DecodeDenseInto refuse each
// hostile lossless frame with an error naming the fault, never a panic,
// while the frame they were built from decodes.
func TestPairs64RefusesHostile(t *testing.T) {
	good, ok := pairs64Frame(77, []uint64{2, 40, 64, 70}, []float64{1, -2, 3, 4})
	if !ok {
		t.Fatal("the good frame does not fit")
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("the good frame: %v", err)
	}
	// At dim 2^32-1 and one index, L = 31: the 34-bit stream carries an
	// index past the int32 indices a Sparse holds.
	huge, ok := pairs64Frame(math.MaxUint32, []uint64{1<<31 + 5}, []float64{1})
	if !ok || len(huge) != headerSize+8+5 {
		t.Fatalf("the one-index frame at dim 2^32-1 has %d bytes (fits %v)", len(huge), ok)
	}
	if err := DecodeInto(&tensor.Sparse{}, huge); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("an index past int32: %v", err)
	}
	for _, h := range hostilePairs64Frames(t) {
		t.Run(h.name, func(t *testing.T) {
			var s tensor.Sparse
			err := DecodeInto(&s, h.frame)
			if err == nil || !strings.Contains(err.Error(), h.want) {
				t.Errorf("DecodeInto: %v, want an error saying %q", err, h.want)
			}
			if err := DecodeDenseInto(make([]float64, 77), h.frame); err == nil || !strings.Contains(err.Error(), h.want) {
				t.Errorf("DecodeDenseInto: %v, want an error saying %q", err, h.want)
			}
		})
	}
}

// BenchmarkPairs64Codec encodes one train-sidco-tcp-sized payload
// (d = 1 847 306, k = 17 354) once and decodes it once, in the lossless
// format and in the 12-byte pairs it replaced, in one run.
func BenchmarkPairs64Codec(b *testing.B) {
	s := sampleSparse(rand.New(rand.NewSource(1)), 1_847_306, 17_354)
	for _, c := range []struct {
		name   string
		encode func([]byte, *tensor.Sparse) []byte
		decode func(*tensor.Sparse, []byte) error
	}{
		{"elias-fano", func(dst []byte, s *tensor.Sparse) []byte {
			buf, _ := EncodeTo(dst, s, FormatPairs64)
			return buf
		}, DecodeInto},
		{"pairs12", appendPairs12, decodePairs12},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			var dec tensor.Sparse
			for i := 0; i < b.N; i++ {
				buf = c.encode(buf[:0], s)
				if err := c.decode(&dec, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "B/payload")
		})
	}
}
