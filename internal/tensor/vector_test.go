package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAxpyScaleAddSub(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy: %v", y)
		}
	}
	Scale(0.5, y)
	if y[0] != 6 || y[2] != 18 {
		t.Fatalf("Scale: %v", y)
	}
	Axpy(-1, x, y) // y -= x
	if y[0] != 5 || y[1] != 10 || y[2] != 15 {
		t.Fatalf("Sub: %v", y)
	}
	Add(x, y)
	if y[0] != 6 {
		t.Fatalf("Add: %v", y)
	}
}

// saltLanes puts, in every streamBlock of xs, so in each lane of every
// group of four blocks, -0, subnormals, ±Inf and a NaN whose payload
// names the lane.
func saltLanes(rng *rand.Rand, xs []float64) {
	for lo := 0; lo < len(xs); lo += streamBlock {
		nan := math.Float64frombits(0x7ff8000000000001 + uint64(lo/streamBlock%4))
		n := min(streamBlock, len(xs)-lo)
		for _, v := range []float64{math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), nan} {
			xs[lo+rng.Intn(n)] = v
		}
	}
}

// nanOrSameBits is bit equality, except that any NaN meets any NaN: Go
// leaves which payload an add of two NaNs keeps to the compiler.
func nanOrSameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestAxpyMatchesOneBlock holds the four-block Axpy to its one-element
// loop, element by element by nanOrSameBits: around one block, around
// one group of four, a group and a tail of more than a block,
// train-sidco-tcp's d and 2^21; plain and with each lane salted, for
// Add's a = 1 and an apply's small negative a, and with x and y the same
// slice.
func TestAxpyMatchesOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 4*4096 - 1, 4 * 4096, 4*4096 + 1, 5*4096 + 7, 1847306, 1 << 21} {
		for _, salted := range []bool{false, true} {
			x, y0 := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y0[i] = rng.NormFloat64()*math.Exp(rng.NormFloat64()*4), rng.NormFloat64()
			}
			if salted {
				saltLanes(rng, x)
				saltLanes(rng, y0)
			}
			for _, a := range []float64{1, -1e-3} {
				for _, alias := range []bool{false, true} {
					want, y := append([]float64(nil), y0...), append([]float64(nil), y0...)
					wantX, gotX := x, x
					if alias {
						wantX, gotX = want, y
					}
					for i, xi := range wantX {
						want[i] += float64(a * xi)
					}
					Axpy(a, gotX, y)
					for i := range want {
						if !nanOrSameBits(y[i], want[i]) {
							t.Fatalf("%s: y[%d] = %v, one element at a time %v", fmt.Sprintf("n=%d salted=%v a=%v alias=%v", n, salted, a, alias), i, y[i], want[i])
						}
					}
				}
			}
		}
	}
}

var sinkAxpy []float64

// BenchmarkAxpy is the apply y += a*x at d = 2^21, the sign of a
// alternating so y neither grows nor cancels. It moves 24 bytes an
// element: x and y read, y written.
func BenchmarkAxpy(b *testing.B) {
	const d = 1 << 21
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, d), make([]float64, d)
	for i := range x {
		x[i], y[i] = rng.NormFloat64()*1e-2, rng.NormFloat64()
	}
	b.SetBytes(24 * d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(float64(1-2*(i%2))*1e-3, x, y)
	}
	sinkAxpy = y
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

func TestZeroClone(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	Zero(x)
	if x[0] != 0 || x[2] != 0 {
		t.Fatalf("Zero: %v", x)
	}
	if c[0] != 1 || c[2] != 3 {
		t.Fatalf("Clone shares storage: %v", c)
	}
}

func TestAbs(t *testing.T) {
	x := []float64{-1, 2, -3}
	out := Abs(x, nil)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("Abs: %v", out)
	}
	// In-place.
	Abs(x, x)
	if x[0] != 1 || x[2] != 3 {
		t.Fatalf("Abs in-place: %v", x)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestCountAndFilterAboveThreshold(t *testing.T) {
	g := []float64{0.1, -0.5, 0.3, -0.05, 0.5}
	if got := CountAboveThreshold(g, 0.3); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	idx, vals := FilterAboveThreshold(g, 0.3, nil, nil)
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 2 || idx[2] != 4 {
		t.Errorf("idx = %v", idx)
	}
	if vals[0] != -0.5 || vals[1] != 0.3 || vals[2] != 0.5 {
		t.Errorf("vals = %v", vals)
	}
}

func TestPairsAboveThresholdStrict(t *testing.T) {
	g := []float64{0.3, -0.3, -0.4}
	mags, idx, ex := PairsAboveThreshold(g, 0.3, 0, nil, nil)
	if len(mags) != 1 || mags[0] != 0.4 || len(idx) != 1 || idx[0] != 2 || ex.Sum != -g[2]-g[0] {
		t.Errorf("strict exceedances = %v at %v, excess %v", mags, idx, ex)
	}
	if mags, idx, _ = CompactPairsAbove(nil, nil, mags, idx, 0.4); len(mags) != 0 || len(idx) != 0 {
		t.Errorf("compaction kept a magnitude equal to its threshold: %v at %v", mags, idx)
	}
}

func TestFilterCountConsistency(t *testing.T) {
	f := func(raw []float64, etaRaw float64) bool {
		g := sanitize(raw)
		eta := math.Abs(math.Mod(etaRaw, 10))
		idx, vals := FilterAboveThreshold(g, eta, nil, nil)
		if len(idx) != len(vals) {
			return false
		}
		return len(idx) == CountAboveThreshold(g, eta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(raw []float64) []float64 {
	g := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		g = append(g, math.Mod(x, 100))
	}
	return g
}

func TestSparsificationError(t *testing.T) {
	g := []float64{3, 0, -4, 1}
	// Keep indices 0 and 2 -> error is ||(0,0,0,1)|| = 1.
	if got := SparsificationError(g, []int32{0, 2}); got != 1 {
		t.Errorf("SparsificationError = %v", got)
	}
	// Keep everything -> 0.
	if got := SparsificationError(g, []int32{0, 1, 2, 3}); got != 0 {
		t.Errorf("full keep error = %v", got)
	}
	// Keep nothing -> full norm.
	if got := SparsificationError(g, nil); math.Abs(got-Norm2(g)) > 1e-12 {
		t.Errorf("empty keep error = %v", got)
	}
}

func TestTopKMinimizesSparsificationError(t *testing.T) {
	// Property: among random index sets of size k, Top-k has minimal
	// sparsification error (Definition 1 / eq. 2).
	rng := rand.New(rand.NewSource(20))
	g := make([]float64, 200)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	const k = 20
	idx, _ := TopKSelect(g, k)
	best := SparsificationError(g, idx)
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(g))[:k]
		randIdx := make([]int32, k)
		for i, p := range perm {
			randIdx[i] = int32(p)
		}
		if SparsificationError(g, randIdx) < best-1e-12 {
			t.Fatal("random subset beat Top-k")
		}
	}
}

var sinkStream float64

// BenchmarkStream is the bound the d-sized sweeps are measured against:
// the least a sweep can do per element, in plain Go at d = 2^21, four
// streamBlocks side by side. "read" sums x, 8 bytes an element, the bytes
// of a one-operand moment sweep; "read+write" adds x into y, 24 bytes an
// element (two reads and a write), the bytes of a fused moment sweep with
// a second vector and of Axpy. Every d-sized kernel row counts the bytes
// it moves, so its MB/s compare with these.
func BenchmarkStream(b *testing.B) {
	const d = 1 << 21
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, d), make([]float64, d)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.Run("read", func(b *testing.B) {
		b.SetBytes(8 * d)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkStream = streamRead(x)
		}
	})
	b.Run("read+write", func(b *testing.B) {
		b.SetBytes(24 * d)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			streamAdd(x, y)
		}
		sinkAxpy = y
	})
}

// streamRead sums x four streamBlocks at a time, one chain per block (the
// last len%(4·streamBlock) elements are dropped: the row needs only d).
func streamRead(x []float64) float64 {
	total := 0.0
	for lo := 0; len(x)-lo >= 4*streamBlock; lo += 4 * streamBlock {
		x0, x1 := (*[streamBlock]float64)(x[lo:]), (*[streamBlock]float64)(x[lo+streamBlock:])
		x2, x3 := (*[streamBlock]float64)(x[lo+2*streamBlock:]), (*[streamBlock]float64)(x[lo+3*streamBlock:])
		var s0, s1, s2, s3 float64
		for i := range x0 {
			s0 += x0[i]
			s1 += x1[i]
			s2 += x2[i]
			s3 += x3[i]
		}
		total += s0 + s1 + s2 + s3
	}
	return total
}

// streamAdd is y += x four streamBlocks at a time, as axpyQuad walks them.
func streamAdd(x, y []float64) {
	for lo := 0; len(x)-lo >= 4*streamBlock; lo += 4 * streamBlock {
		x0, x1 := (*[streamBlock]float64)(x[lo:]), (*[streamBlock]float64)(x[lo+streamBlock:])
		x2, x3 := (*[streamBlock]float64)(x[lo+2*streamBlock:]), (*[streamBlock]float64)(x[lo+3*streamBlock:])
		y0, y1 := (*[streamBlock]float64)(y[lo:]), (*[streamBlock]float64)(y[lo+streamBlock:])
		y2, y3 := (*[streamBlock]float64)(y[lo+2*streamBlock:]), (*[streamBlock]float64)(y[lo+3*streamBlock:])
		for i := range x0 {
			y0[i] += x0[i]
			y1[i] += x1[i]
			y2[i] += x2[i]
			y3[i] += x3[i]
		}
	}
}
