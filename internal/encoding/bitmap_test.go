package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// referenceMean is the route the bitmap merge replaced: decode every push
// (refusing one of another format or dim, as the server does), merge in
// push order, encode the mean as a bitmap. It reports the first push at
// fault.
func referenceMean(pushes [][]byte) ([]byte, int, error) {
	parts := make([]tensor.Sparse, len(pushes))
	for p, buf := range pushes {
		if err := DecodeInto(&parts[p], buf); err != nil {
			return nil, p, err
		}
		if Format(buf[0]) != FormatBitmap {
			return nil, p, fmt.Errorf("format %v", Format(buf[0]))
		}
		if parts[p].Dim != parts[0].Dim {
			return nil, p, fmt.Errorf("dim %d, want %d", parts[p].Dim, parts[0].Dim)
		}
	}
	var mean tensor.Sparse
	tensor.MeanSparseInto(&mean, parts)
	out, err := Encode(&mean, FormatBitmap)
	return out, -1, err
}

// sameBitmapPayload compares two bitmap payloads byte for byte, except
// that any NaN value meets any NaN: which payload an add of two NaNs
// keeps is the compiler's operand order, not pinned.
func sameBitmapPayload(got, want []byte) bool {
	if len(got) != len(want) || len(got) < headerSize {
		return false
	}
	dim := int(binary.LittleEndian.Uint32(want[1:5]))
	vals := headerSize + (dim+7)/8
	if !bytes.Equal(got[:vals], want[:vals]) {
		return false
	}
	for off := vals; off+4 <= len(got); off += 4 {
		g := math.Float32frombits(binary.LittleEndian.Uint32(got[off:]))
		w := math.Float32frombits(binary.LittleEndian.Uint32(want[off:]))
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return false
		}
	}
	return true
}

// mergeCase draws m pushes of dimension dim with the given support shape
// and value kind, each a bitmap payload.
func mergeCase(t *testing.T, rng *rand.Rand, m, dim int, support, values string) [][]byte {
	t.Helper()
	specials := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1),              // the least subnormal: its mean rounds to +0
		-math.Float32frombits(1),             // ... and to -0
		math.Float32frombits(0x8000_0000),    // -0
		0, math.MaxFloat32, -math.MaxFloat32, // overflow to ±Inf in the sum
	}
	base := make([]float32, dim)
	for j := range base {
		base[j] = float32(rng.NormFloat64())
	}
	pushes := make([][]byte, m)
	for p := range pushes {
		s := &tensor.Sparse{Dim: dim}
		for j := 0; j < dim; j++ {
			var in bool
			switch support {
			case "disjoint":
				in = j%m == p && rng.Intn(3) > 0
			case "equal":
				in = j%3 != 1
			case "overlapping":
				in = rng.Intn(2) == 0
			case "full":
				in = true
			}
			if !in {
				continue
			}
			var v float32
			switch values {
			case "normal":
				v = float32(rng.NormFloat64())
			case "cancelling":
				// Pushes alternate ±base: an even number of holders cancels.
				v = base[j]
				if p%2 == 1 {
					v = -v
				}
			case "special":
				v = specials[rng.Intn(len(specials))]
			}
			s.Append(int32(j), float64(v))
		}
		buf, err := Encode(s, FormatBitmap)
		if err != nil {
			t.Fatal(err)
		}
		pushes[p] = buf
	}
	return pushes
}

// TestMeanBitmapMatchesDecodeMerge holds the bitmap merge to decode →
// MeanSparseInto → encode, byte for byte (any NaN meets any NaN): m = 1-5
// pushes, every dim residue mod 64 below and above 64, disjoint, equal,
// overlapping and full supports, and normal values, cancelling pairs, and
// subnormals, ±0, ±Inf, NaN and sums that overflow.
func TestMeanBitmapMatchesDecodeMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var mb MeanBitmap
	wire := bytes.Repeat([]byte{0xEE}, 3) // stale, too small
	for m := 1; m <= 5; m++ {
		for r := 0; r < 64; r++ {
			for _, dim := range []int{r, 64 + r, 192 + r} {
				for _, support := range []string{"disjoint", "equal", "overlapping", "full"} {
					for _, values := range []string{"normal", "cancelling", "special"} {
						pushes := mergeCase(t, rng, m, dim, support, values)
						want, _, err := referenceMean(pushes)
						if err != nil {
							t.Fatal(err)
						}
						wire, err = mb.AppendTo(wire[:0], pushes)
						if err != nil {
							t.Fatalf("m %d dim %d %s %s: %v", m, dim, support, values, err)
						}
						if !sameBitmapPayload(wire, want) {
							t.Fatalf("m %d dim %d %s %s: merge\n%x\nwant\n%x", m, dim, support, values, wire, want)
						}
					}
				}
			}
		}
	}
}

// TestMeanBitmapAppends: AppendTo keeps what dst holds and appends after it.
func TestMeanBitmapAppends(t *testing.T) {
	pushes := mergeCase(t, rand.New(rand.NewSource(1)), 2, 100, "overlapping", "normal")
	want, _, err := referenceMean(pushes)
	if err != nil {
		t.Fatal(err)
	}
	var mb MeanBitmap
	got, err := mb.AppendTo([]byte("prefix"), pushes)
	if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatalf("AppendTo after a prefix = %q, %v", got, err)
	}
	if _, err := mb.AppendTo(nil, nil); err == nil {
		t.Fatal("a mean of no pushes was accepted")
	}
}

// hostileFrames returns buffers DecodeInto refuses, in every format: the
// hostile bitmaps and lossless frames, truncations and hostile headers of
// valid frames, retired and unknown format bytes, and bfloat16 pair
// streams with a repeated, descending or out-of-range index.
func hostileFrames(tb testing.TB) [][]byte {
	tb.Helper()
	s, err := tensor.NewSparse(77, []int32{2, 40, 64, 70}, []float64{1, -2, 3, 4})
	if err != nil {
		tb.Fatal(err)
	}
	frames := [][]byte{{}, {byte(FormatBitmap)}, {99, 1, 0, 0, 0, 0, 0, 0, 0}}
	frames = append(frames, hostileBitmaps(tb)...)
	for _, h := range hostilePairs64Frames(tb) {
		frames = append(frames, h.frame)
	}
	for _, f := range keptFormats {
		buf, err := Encode(s, f)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf[:len(buf)-1], buf[:headerSize], append(buf, 0))
		bad := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(bad[5:9], 1<<31) // nnz past dim
		frames = append(frames, bad)
		bad = append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(bad[5:9], 3) // fewer than stored
		frames = append(frames, bad)
		if f != FormatPairsBF16 {
			continue
		}
		for _, at := range []struct {
			pair int
			idx  uint32
		}{{1, 2}, {2, 39}, {3, 77}, {3, 1 << 31}, {0, 1000}} {
			bad := append([]byte(nil), buf...)
			binary.LittleEndian.PutUint32(bad[headerSize+6*at.pair:], at.idx)
			frames = append(frames, bad)
		}
	}
	for _, rf := range retiredFrames() {
		frames = append(frames, rf.frame)
	}
	for i, fr := range frames {
		if _, err := Decode(fr); err == nil {
			tb.Fatalf("hostile frame %d is accepted by Decode", i)
		}
	}
	return frames
}

// companion returns a valid bitmap push of the dim buf's header claims
// (77 where it claims none or a huge one), so a merge meets buf's own
// fault first.
func companion(tb testing.TB, buf []byte) []byte {
	tb.Helper()
	dim := 77
	if len(buf) >= headerSize {
		if d := int(binary.LittleEndian.Uint32(buf[1:5])); d <= 1<<16 {
			dim = d
		}
	}
	s := &tensor.Sparse{Dim: dim}
	for j := 0; j < dim; j += 5 {
		s.Append(int32(j), float64(j)+0.5)
	}
	out, err := Encode(s, FormatBitmap)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestNewPathsRefuseHostile: every buffer DecodeInto refuses is refused by
// DecodeDenseInto, and by the bitmap merge at every position among valid
// pushes of its dim, the refusal naming that push. A push in a kept format
// other than bitmap is refused by the merge too.
func TestNewPathsRefuseHostile(t *testing.T) {
	var mb MeanBitmap
	frames := hostileFrames(t)
	s, err := tensor.NewSparse(77, []int32{2, 40}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatPairs64, FormatPairsBF16} {
		buf, err := Encode(s, f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf) // valid, but not the merge's format
	}
	for i, bad := range frames {
		if _, err := Decode(bad); err != nil {
			out := make([]float64, 77)
			if err := DecodeDenseInto(out, bad); err == nil {
				t.Errorf("frame %d: DecodeDenseInto accepted what DecodeInto refuses", i)
			}
		}
		for m := 1; m <= 3; m++ {
			for at := 0; at < m; at++ {
				pushes := make([][]byte, m)
				for p := range pushes {
					pushes[p] = companion(t, bad)
				}
				pushes[at] = bad
				_, err := mb.AppendTo(nil, pushes)
				var pe *PushError
				if !errors.As(err, &pe) || pe.Push != at {
					t.Errorf("frame %d at push %d of %d: merge returned %v, want a refusal of push %d", i, at, m, err, at)
				}
				if _, refAt, refErr := referenceMean(pushes); refErr == nil || refAt != at {
					t.Errorf("frame %d at push %d of %d: the decoding route refused push %d (%v)", i, at, m, refAt, refErr)
				}
			}
		}
	}
	// Two valid pushes of different dims: the second is refused.
	pushes := [][]byte{companion(t, nil), companion(t, []byte{1, 64, 0, 0, 0, 0, 0, 0, 0})}
	var pe *PushError
	if _, err := mb.AppendTo(nil, pushes); !errors.As(err, &pe) || pe.Push != 1 {
		t.Errorf("pushes of dims 77 and 64: merge returned %v, want a refusal of push 1", err)
	}
}

// TestDecodeDenseIntoMatchesScatter holds DecodeDenseInto to DecodeInto,
// Zero and the assignment of the stored elements, in every format, into a
// dense vector holding stale values, and refuses a destination of another
// length.
func TestDecodeDenseIntoMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{0, 1, 7, 63, 64, 65, 77, 128, 1000, 4099} {
		for _, fill := range []float64{0, 0.1, 0.5, 1} {
			s := &tensor.Sparse{Dim: dim}
			for j := 0; j < dim; j++ {
				if rng.Float64() < fill {
					s.Append(int32(j), rng.NormFloat64())
				}
			}
			for _, f := range keptFormats {
				buf, err := Encode(s, f)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := Decode(buf)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, dim)
				for i, j := range dec.Idx {
					want[j] = dec.Vals[i]
				}
				got := make([]float64, dim)
				for i := range got {
					got[i] = math.NaN()
				}
				if err := DecodeDenseInto(got, buf); err != nil {
					t.Fatalf("dim %d fill %v %v: %v", dim, fill, f, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("dim %d fill %v %v: element %d = %v, want %v", dim, fill, f, i, got[i], want[i])
					}
				}
				if err := DecodeDenseInto(make([]float64, dim+1), buf); err == nil {
					t.Fatalf("dim %d %v: a destination of %d elements was accepted", dim, f, dim+1)
				}
			}
		}
	}
}

// FuzzMeanBitmap drives the bitmap merge with two arbitrary pushes: either
// both it and the decoding route refuse them, naming the same push, or
// both accept and the merged payloads are equal (any NaN meets any NaN).
func FuzzMeanBitmap(f *testing.F) {
	s, err := tensor.NewSparse(77, []int32{0, 3, 17, 40, 63, 64, 76}, []float64{1, -2.5, 0.25, 3, -4, 5, -6})
	if err != nil {
		f.Fatal(err)
	}
	good, err := Encode(s, FormatBitmap)
	if err != nil {
		f.Fatal(err)
	}
	neg := &tensor.Sparse{}
	neg.CopyFrom(s)
	for i := range neg.Vals {
		neg.Vals[i] = -neg.Vals[i]
	}
	cancel, err := Encode(neg, FormatBitmap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, good)
	f.Add(good, cancel)
	f.Add(good, companion(f, good))
	for _, bad := range hostileFrames(f) {
		f.Add(good, bad)
		f.Add(bad, good)
	}
	var mb MeanBitmap
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pushes := [][]byte{a, b}
		want, refAt, refErr := referenceMean(pushes)
		got, err := mb.AppendTo(nil, pushes)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("merge err=%v, decoding route err=%v", err, refErr)
		}
		if err != nil {
			var pe *PushError
			if !errors.As(err, &pe) || pe.Push != refAt {
				t.Fatalf("merge refused %v, decoding route push %d (%v)", err, refAt, refErr)
			}
			return
		}
		if !sameBitmapPayload(got, want) {
			t.Fatalf("merge\n%x\nwant\n%x", got, want)
		}
	})
}

// BenchmarkBitmap times, at the ResNet-20 dimension and two pushes of
// density 0.1, the server's round on bitmap pushes (the merge, and the
// decode → MeanSparseInto → encode route it replaced), a worker's encode
// and its dense pull in every format (DecodeDenseInto, and DecodeInto →
// Zero → assignment).
func BenchmarkBitmap(b *testing.B) {
	const dim, density = 269_467, 0.1
	rng := rand.New(rand.NewSource(1))
	sels := make([]tensor.Sparse, 2)
	pushes := make([][]byte, 2)
	for p := range sels {
		sels[p].Dim = dim
		for j := 0; j < dim; j++ {
			if rng.Float64() < density {
				sels[p].Append(int32(j), rng.NormFloat64())
			}
		}
		var err error
		if pushes[p], err = Encode(&sels[p], FormatBitmap); err != nil {
			b.Fatal(err)
		}
	}
	reply, _, err := referenceMean(pushes)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merge", func(b *testing.B) {
		var mb MeanBitmap
		var wire []byte
		b.SetBytes(int64(len(pushes[0]) + len(pushes[1])))
		for i := 0; i < b.N; i++ {
			wire, _ = mb.AppendTo(wire[:0], pushes)
		}
	})
	b.Run("decode-merge-encode", func(b *testing.B) {
		parts := make([]tensor.Sparse, 2)
		var mean tensor.Sparse
		var wire []byte
		b.SetBytes(int64(len(pushes[0]) + len(pushes[1])))
		for i := 0; i < b.N; i++ {
			for p := range parts {
				_ = DecodeInto(&parts[p], pushes[p])
			}
			tensor.MeanSparseInto(&mean, parts)
			wire, _ = EncodeTo(wire[:0], &mean, FormatBitmap)
		}
	})
	b.Run("encode", func(b *testing.B) {
		var wire []byte
		for i := 0; i < b.N; i++ {
			wire, _ = EncodeTo(wire[:0], &sels[0], FormatBitmap)
		}
	})
	out := make([]float64, dim)
	dec, err := Decode(reply)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range keptFormats {
		wire, err := Encode(dec, f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("pull-dense/"+f.String(), func(b *testing.B) {
			b.SetBytes(8 * dim)
			for i := 0; i < b.N; i++ {
				_ = DecodeDenseInto(out, wire)
			}
		})
		b.Run("pull-decode-scatter/"+f.String(), func(b *testing.B) {
			var mean tensor.Sparse
			b.SetBytes(8 * dim)
			for i := 0; i < b.N; i++ {
				_ = DecodeInto(&mean, wire)
				clear(out)
				for k, j := range mean.Idx {
					out[j] = mean.Vals[k]
				}
			}
		})
	}
}
