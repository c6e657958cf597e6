package tensor

import (
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
