package simgrad

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{Dim: 1000, Family: FamilyLaplace, Seed: 5}
	a, b := New(cfg), New(cfg)
	ga, gb := a.Next(), b.Next()
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	// Different seeds diverge.
	c := New(Config{Dim: 1000, Family: FamilyLaplace, Seed: 6})
	gc := c.Next()
	same := true
	for i := range ga {
		if ga[i] != gc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorMarginalsMatchFamily(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		dist stats.Distribution
	}{
		{"laplace", Config{Dim: 50000, Family: FamilyLaplace, Scale: 0.02, Seed: 1},
			stats.Laplace{Scale: 0.02}},
		{"gamma", Config{Dim: 50000, Family: FamilyDoubleGamma, Scale: 0.02, Shape: 0.7, Seed: 2},
			stats.DoubleGamma{Shape: 0.7, Scale: 0.02}},
		{"gp", Config{Dim: 50000, Family: FamilyDoubleGP, Scale: 0.02, Shape: 0.2, Seed: 3},
			stats.DoubleGP{Shape: 0.2, Scale: 0.02}},
	}
	for _, c := range cases {
		g := New(c.cfg).Next()
		ks := stats.NewECDF(g).KSDistance(c.dist)
		if ks > 0.02 {
			t.Errorf("%s: KS distance %v against target marginal", c.name, ks)
		}
	}
}

func TestScaleDecayAndSharpening(t *testing.T) {
	gen := New(Config{
		Dim: 20000, Family: FamilyDoubleGamma, Scale: 0.1,
		ScaleDecay: 0.01, SharpenRate: 0.001, Seed: 4,
	})
	first := gen.Next()
	// Fast-forward the iteration counter.
	for i := 0; i < 500; i++ {
		gen.Next()
	}
	late := gen.Next()
	if stats.MeanAbs(late) >= stats.MeanAbs(first) {
		t.Errorf("scale did not decay: %v -> %v", stats.MeanAbs(first), stats.MeanAbs(late))
	}
	// Sharpened gradients are relatively sparser: higher kurtosis.
	if kurtosis(late) <= kurtosis(first) {
		t.Errorf("tail did not sharpen: kurtosis %v -> %v", kurtosis(first), kurtosis(late))
	}
}

func TestOutliersPresent(t *testing.T) {
	gen := New(Config{
		Dim: 100000, Family: FamilyLaplace, Scale: 0.01,
		OutlierFrac: 1e-4, OutlierScale: 1000, Seed: 7,
	})
	g := gen.Next()
	if stats.MaxAbs(g) < 1 {
		t.Errorf("expected outliers with magnitude >= 10, max = %v", stats.MaxAbs(g))
	}
}

func TestTheoreticalThresholdSelectsDelta(t *testing.T) {
	for _, fam := range []Family{FamilyLaplace, FamilyDoubleGamma, FamilyDoubleGP} {
		gen := New(Config{Dim: 200000, Family: fam, Scale: 0.01, Seed: 8})
		g := gen.Next()
		for _, delta := range []float64{0.1, 0.01} {
			eta := exactThreshold(gen.dist(0), delta)
			got := float64(tensor.CountAboveThreshold(g, eta)) / float64(len(g))
			if math.Abs(got-delta)/delta > 0.25 {
				t.Errorf("family %d delta %v: achieved %v", fam, delta, got)
			}
		}
	}
}

func TestGeneratedGradientsAreCompressible(t *testing.T) {
	// Property 1: sorted magnitudes follow a power-law with p > 1/2. The
	// GP family has a polynomial tail whose sorted-coefficient log-log
	// slope equals its shape, so shape 0.7 certifies compressibility.
	gen := New(Config{Dim: 100000, Family: FamilyDoubleGP, Scale: 0.01, Shape: 0.7, Seed: 9})
	g := gen.Next()
	p := PowerLawFit(tensor.SortedAbsDescending(g))
	if math.IsNaN(p) || p < 0.5 {
		t.Errorf("GP(0.7): power-law exponent %v, want > 0.5", p)
	}

	// Exponential-type tails (gamma family) decay logarithmically in rank
	// space, so the fitted exponent is positive but small; the test only
	// asserts a sane fit, matching the discussion around Figure 7.
	gen = New(Config{Dim: 100000, Family: FamilyDoubleGamma, Scale: 0.01, Shape: 0.4, Seed: 9})
	g = gen.Next()
	p = PowerLawFit(tensor.SortedAbsDescending(g))
	if math.IsNaN(p) || p <= 0 {
		t.Errorf("gamma(0.4): power-law exponent %v, want > 0", p)
	}
}

func TestPowerLawFitOnExactPowerLaw(t *testing.T) {
	// g_j = j^-0.8 exactly: the fit must recover 0.8.
	n := 10000
	sorted := make([]float64, n)
	for j := range sorted {
		sorted[j] = math.Pow(float64(j+1), -0.8)
	}
	p := PowerLawFit(sorted)
	if math.Abs(p-0.8) > 0.01 {
		t.Errorf("power-law fit = %v, want 0.8", p)
	}
}

func TestPowerLawFitDegenerate(t *testing.T) {
	if p := PowerLawFit([]float64{1}); !math.IsNaN(p) {
		t.Errorf("single point fit = %v, want NaN", p)
	}
	if p := PowerLawFit([]float64{0, 0, 0}); !math.IsNaN(p) {
		t.Errorf("all-zero fit = %v, want NaN", p)
	}
}

func TestFillReusesBuffer(t *testing.T) {
	gen := New(Config{Dim: 100, Family: FamilyLaplace, Seed: 10})
	buf := make([]float64, 100)
	gen.Fill(buf)
	if gen.iter != 1 {
		t.Errorf("iter = %d", gen.iter)
	}
	nonZero := false
	for _, v := range buf {
		if v != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Error("Fill left buffer empty")
	}
}

func TestFillPanicsOnBadLength(t *testing.T) {
	gen := New(Config{Dim: 100, Seed: 11})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	gen.Fill(make([]float64, 99))
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Dim: 0})
}

// exactThreshold is the Top-k threshold of a generator's law: the
// (1-delta) quantile of |G|.
func exactThreshold(d stats.Distribution, delta float64) float64 {
	switch d := d.(type) {
	case stats.Laplace:
		return d.Abs().Quantile(1 - delta)
	case stats.DoubleGamma:
		return d.Abs().Quantile(1 - delta)
	case stats.DoubleGP:
		return d.Abs().Quantile(1 - delta)
	}
	return math.NaN()
}

// kurtosis is the excess kurtosis of xs (zero for a Gaussian).
func kurtosis(xs []float64) float64 {
	m := stats.Mean(xs)
	m2, m4 := 0.0, 0.0
	for _, x := range xs {
		d := (x - m) * (x - m)
		m2 += d
		m4 += d * d
	}
	n := float64(len(xs))
	return m4*n/(m2*m2) - 3
}
