package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Variance(xs); got != 2 {
		t.Errorf("Variance = %v, want 2", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean":     Mean(nil),
		"Variance": Variance(nil),
		"MeanAbs":  MeanAbs(nil),
		"MaxAbs":   MaxAbs(nil),
		"Quantile": Quantile(nil, 0.5),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
}

func TestMeanAbsAndMeanVarAbs(t *testing.T) {
	xs := []float64{-1, 2, -3, 4}
	if got := MeanAbs(xs); got != 2.5 {
		t.Errorf("MeanAbs = %v, want 2.5", got)
	}
	m, v := MeanVarAbs(xs)
	if m != 2.5 {
		t.Errorf("MeanVarAbs mean = %v, want 2.5", m)
	}
	wantVar := Variance([]float64{1, 2, 3, 4})
	if math.Abs(v-wantVar) > 1e-12 {
		t.Errorf("MeanVarAbs variance = %v, want %v", v, wantVar)
	}
}

func TestMeanVarAbsMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 100))
		}
		if len(xs) == 0 {
			return true
		}
		m1, v1 := MeanVarAbs(xs)
		abs := make([]float64, len(xs))
		for i, x := range xs {
			abs[i] = math.Abs(x)
		}
		m2, v2 := Mean(abs), Variance(abs)
		scale := math.Max(1, math.Max(math.Abs(v1), math.Abs(v2)))
		return math.Abs(m1-m2) < 1e-9*math.Max(1, m2) && math.Abs(v1-v2) < 1e-7*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxAbs(t *testing.T) {
	xs := []float64{3, -7, 2, 5, -1}
	if got := MaxAbs(xs); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{9}, 0.7); got != 9 {
		t.Errorf("single-element quantile = %v", got)
	}
	if got := Quantile(xs, -0.1); !math.IsNaN(got) {
		t.Errorf("invalid q: %v", got)
	}
}

func TestQuantileUnsortedMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 501)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		a := Quantile(xs, q)
		b := QuantileSorted(sorted, q)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("q=%v: %v vs %v", q, a, b)
		}
	}
}
