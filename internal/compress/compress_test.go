package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func laplaceVec(d int, scale float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, d)
	for i := range g {
		mag := rng.ExpFloat64() * scale
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		g[i] = mag
	}
	return g
}

func TestTargetK(t *testing.T) {
	cases := []struct {
		d     int
		delta float64
		want  int
	}{
		{1000, 0.1, 100},
		{1000, 0.001, 1},
		{1000, 1e-9, 1},   // floors at 1
		{1000, 1, 1000},   // full
		{3, 0.5, 2},       // rounds
		{0, 0.5, 0},       // empty
		{10, 0.99999, 10}, // caps at d
	}
	for _, c := range cases {
		if got := TargetK(c.d, c.delta); got != c.want {
			t.Errorf("TargetK(%d, %v) = %d, want %d", c.d, c.delta, got, c.want)
		}
	}
}

func TestValidation(t *testing.T) {
	comps := []Compressor{NewTopK(), NewDGC(1), NewRedSync(), NewGaussianKSGD(), NewRandomK(1)}
	for _, c := range comps {
		if _, err := FreshCompress(c, nil, 0.1); err == nil {
			t.Errorf("%s: empty gradient should error", c.Name())
		}
		for _, bad := range []float64{0, -0.1, 1.5, math.NaN()} {
			if _, err := FreshCompress(c, []float64{1, 2}, bad); err == nil {
				t.Errorf("%s: ratio %v should error", c.Name(), bad)
			}
		}
	}
}

func TestNoneKeepsEverything(t *testing.T) {
	g := []float64{1, -2, 0, 3}
	s, err := FreshCompress(None{}, g, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != len(g) {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	dense := s.Dense()
	for i := range g {
		if dense[i] != g[i] {
			t.Fatalf("Dense = %v", dense)
		}
	}
	if _, err := FreshCompress(None{}, nil, 0.1); err == nil {
		t.Error("empty should error")
	}
}

func TestTopKExactCount(t *testing.T) {
	g := laplaceVec(10000, 0.01, 1)
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		s, err := FreshCompress(NewTopK(), g, delta)
		if err != nil {
			t.Fatal(err)
		}
		want := TargetK(len(g), delta)
		if s.NNZ() != want {
			t.Errorf("delta=%v: NNZ = %d, want %d", delta, s.NNZ(), want)
		}
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	g := []float64{0.1, -5, 0.2, 4, -0.3}
	s, err := FreshCompress(NewTopK(), g, 0.4) // k = 2
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 || s.Idx[0] != 1 || s.Idx[1] != 3 {
		t.Fatalf("kept %v %v", s.Idx, s.Vals)
	}
}

func TestTopKDoesNotModifyInput(t *testing.T) {
	g := laplaceVec(1000, 1, 2)
	orig := tensor.Clone(g)
	if _, err := FreshCompress(NewTopK(), g, 0.01); err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if g[i] != orig[i] {
			t.Fatal("TopK modified its input")
		}
	}
}

func TestRandomKCountAndScaling(t *testing.T) {
	g := laplaceVec(5000, 1, 3)
	c := NewRandomK(7)
	s, err := FreshCompress(c, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 50 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	for i, j := range s.Idx {
		if s.Vals[i] != g[j] {
			t.Fatal("Random-k must keep the raw values, unscaled")
		}
	}
}

func TestDGCTracksTarget(t *testing.T) {
	// The sample-quantile threshold is noisy per call (its error scales
	// with 1/(delta * sample size)), so judge the mean achieved ratio over
	// repeated draws, as the paper's estimation-quality metric does.
	c := NewDGC(5)
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		const d, reps = 200000, 20
		k := TargetK(d, delta)
		sum := 0.0
		for r := 0; r < reps; r++ {
			g := laplaceVec(d, 0.01, int64(40+r))
			s, err := FreshCompress(c, g, delta)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(s.NNZ()) / float64(k)
			if ratio > 1.0001 {
				t.Errorf("delta=%v: DGC over target after trim: %v", delta, ratio)
			}
			sum += ratio
		}
		avg := sum / reps
		// Trimming caps over-shoots at 1, so the mean sits below 1; it
		// must still be the right order of magnitude (cf. Figure 1c).
		if avg < 0.45 || avg > 1.0001 {
			t.Errorf("delta=%v: DGC mean ratio = %v", delta, avg)
		}
	}
}

func TestDGCTrimsToExactlyKWhenOverselecting(t *testing.T) {
	// Force an under-shooting threshold through the input: 16 elements tie
	// at the largest magnitude, and a vector no longer than the 256-element
	// sample floor is sampled as many times as it has elements, so the
	// sample's k-th largest (k = 3) is that magnitude and the filter keeps
	// all 16. The trim must keep exactly k of them.
	g := laplaceVec(256, 1, 6)
	for i := 0; i < len(g); i += 16 {
		g[i] = 100
	}
	s, err := FreshCompress(NewDGC(7), g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NNZ(), TargetK(len(g), 0.01); got != want {
		t.Errorf("NNZ = %d, want k = %d", got, want)
	}
	for _, v := range s.Vals {
		if v != 100 {
			t.Errorf("trim kept %v, want only the tied maxima", v)
		}
	}
}

func TestDGCKeepsLargeElements(t *testing.T) {
	// The trimmed selection must still contain the single dominant
	// element.
	g := laplaceVec(50000, 0.001, 8)
	g[12345] = 100
	s, err := FreshCompress(NewDGC(9), g, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range s.Idx {
		if j == 12345 {
			found = true
		}
	}
	if !found {
		t.Error("DGC dropped the dominant element")
	}
}

func TestRedSyncReasonableOnCleanData(t *testing.T) {
	// On clean light-tailed data the bounded search lands in its
	// acceptance band.
	g := laplaceVec(100000, 0.01, 10)
	s, err := FreshCompress(NewRedSync(), g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	k := TargetK(len(g), 0.01)
	ratio := float64(s.NNZ()) / float64(k)
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("RedSync ratio = %v", ratio)
	}
}

func TestRedSyncDegradesWithOutliers(t *testing.T) {
	// A single huge outlier stretches the mean-max range and degrades the
	// bounded search — the failure mode in the paper's Figures 1c/3c.
	g := laplaceVec(100000, 0.01, 11)
	g[0] = 1000 // outlier
	c := NewRedSync()
	s, err := FreshCompress(c, g, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	k := TargetK(len(g), 0.001)
	cleanErr := estimationError(t, NewRedSync(), laplaceVec(100000, 0.01, 12), 0.001)
	dirtyRatio := float64(s.NNZ()) / float64(k)
	// The outlier run should be materially worse than the clean run.
	if math.Abs(math.Log(dirtyRatio)) < math.Abs(math.Log(cleanErr))-1e-9 {
		t.Logf("clean ratio error %v, dirty %v", cleanErr, dirtyRatio)
	}
	if dirtyRatio > 0.9 && dirtyRatio < 1.1 {
		t.Errorf("expected degraded estimate with outlier, got ratio %v", dirtyRatio)
	}
}

func estimationError(t *testing.T, c Compressor, g []float64, delta float64) float64 {
	t.Helper()
	s, err := FreshCompress(c, g, delta)
	if err != nil {
		t.Fatal(err)
	}
	return float64(s.NNZ()) / float64(TargetK(len(g), delta))
}

func TestRedSyncDegenerateConstantVector(t *testing.T) {
	g := []float64{0.5, -0.5, 0.5, -0.5}
	s, err := FreshCompress(NewRedSync(), g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != len(g) {
		t.Errorf("constant vector: NNZ = %d", s.NNZ())
	}
}

func TestGaussianKSGDUnderSelectsOnHeavyTails(t *testing.T) {
	// Run GaussianKSGD over a stream of Laplace gradients at an aggressive
	// ratio: the asymmetric adjustment should drive the achieved ratio
	// well below the target, as in Figure 4b/4d.
	c := NewGaussianKSGD()
	const d, delta = 50000, 0.001
	k := TargetK(d, delta)
	sum := 0.0
	const iters = 100
	for i := 0; i < iters; i++ {
		g := laplaceVec(d, 0.01, int64(100+i))
		s, err := FreshCompress(c, g, delta)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(s.NNZ()) / float64(k)
	}
	avg := sum / iters
	if avg > 0.8 {
		t.Errorf("GaussianKSGD average ratio %v; expected substantial under-selection", avg)
	}
}

func TestGaussianKSGDFactorClamped(t *testing.T) {
	c := NewGaussianKSGD()
	g := laplaceVec(1000, 1, 13)
	for i := 0; i < 500; i++ {
		if _, err := FreshCompress(c, g, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	if f := c.factor; f < 1e-2 || f > 1e2 {
		t.Errorf("factor escaped clamp: %v", f)
	}
}

func TestAllCompressorsProduceValidSparse(t *testing.T) {
	comps := []Compressor{NewTopK(), NewDGC(21), NewRedSync(), NewGaussianKSGD(), NewRandomK(22), None{}}
	f := func(seedRaw int64, deltaRaw float64) bool {
		delta := 0.001 + math.Mod(math.Abs(deltaRaw), 0.999)
		g := laplaceVec(2000, 0.1, seedRaw)
		for _, c := range comps {
			s, err := FreshCompress(c, g, delta)
			if err != nil {
				return false
			}
			// NewSparse already validates ascending unique indices; check
			// the values match the source where not scaled.
			if s.NNZ() == 0 && c.Name() != "gaussiank" && c.Name() != "redsync" {
				return false
			}
			if s.Dim != len(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCompressIntoMatchesCompress cross-checks CompressInto over a dirty
// destination against FreshCompress elementwise for every compressor in
// this package: same selection, same values.
// Stateful and randomized compressors get twin instances so both paths
// see identical internal state and random streams.
func TestCompressIntoMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := make([]float64, 4096)
	for i := range g {
		g[i] = rng.NormFloat64() * rng.ExpFloat64()
	}
	pairs := []struct {
		name string
		a, b Compressor
	}{
		{"none", None{}, None{}},
		{"topk", NewTopK(), NewTopK()},
		{"dgc", NewDGC(5), NewDGC(5)},
		{"redsync", NewRedSync(), NewRedSync()},
		{"gaussiank", NewGaussianKSGD(), NewGaussianKSGD()},
		{"randomk", NewRandomK(5), NewRandomK(5)},
		{"ec-topk", NewErrorFeedback(NewTopK()), NewErrorFeedback(NewTopK())},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			dst := &tensor.Sparse{Dim: 1, Idx: []int32{0}, Vals: []float64{123}}
			for iter := 0; iter < 3; iter++ { // stateful paths must track across calls
				want, err := FreshCompress(p.a, g, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.b.CompressInto(dst, g, 0.01); err != nil {
					t.Fatal(err)
				}
				if dst.Dim != want.Dim || dst.NNZ() != want.NNZ() {
					t.Fatalf("iter %d: shape (%d,%d), want (%d,%d)", iter, dst.Dim, dst.NNZ(), want.Dim, want.NNZ())
				}
				for i := range want.Idx {
					if dst.Idx[i] != want.Idx[i] || dst.Vals[i] != want.Vals[i] {
						t.Fatalf("iter %d element %d: (%d,%v) want (%d,%v)",
							iter, i, dst.Idx[i], dst.Vals[i], want.Idx[i], want.Vals[i])
					}
				}
			}
		})
	}
}
