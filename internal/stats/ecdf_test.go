package stats

import (
	"math"
	"slices"
	"testing"
)

func TestECDFBasics(t *testing.T) {
	xs := []float64{3, 1, 2, 2}
	e := NewECDF(xs)
	if !slices.Equal(e.sorted, []float64{1, 2, 2, 3}) {
		t.Errorf("sorted sample = %v", e.sorted)
	}
	if xs[0] != 3 {
		t.Error("NewECDF sorted its input in place")
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if got := e.KSDistance(Exponential{Scale: 1}); !math.IsNaN(got) {
		t.Errorf("empty KS = %v, want NaN", got)
	}
}

// TestECDFQuantileMatchesQuantile: the sorted sample an ECDF holds gives
// the same interpolated quantiles as Quantile over the raw sample.
func TestECDFQuantileMatchesQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	e := NewECDF(xs)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := QuantileSorted(e.sorted, q), Quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%v): %v vs %v", q, got, want)
		}
	}
}

func TestKSDistanceDiscriminates(t *testing.T) {
	// KS distance of exponential data should be small against the true
	// distribution and large against a badly-scaled one.
	xs := sampleN(Exponential{Scale: 1}, 20000, 11)
	e := NewECDF(xs)
	good := e.KSDistance(Exponential{Scale: 1})
	bad := e.KSDistance(Exponential{Scale: 5})
	if good > 0.02 {
		t.Errorf("KS against true distribution = %v, want < 0.02", good)
	}
	if bad < 0.3 {
		t.Errorf("KS against wrong scale = %v, want > 0.3", bad)
	}
	if bad <= good {
		t.Error("KS distance failed to discriminate")
	}
}

func TestKSDistanceExactSmallSample(t *testing.T) {
	// For a single point x with model CDF F, the KS statistic is
	// max(F(x), 1-F(x)).
	e := NewECDF([]float64{1})
	d := Exponential{Scale: 1}
	want := math.Max(d.CDF(1), 1-d.CDF(1))
	if got := e.KSDistance(d); math.Abs(got-want) > 1e-12 {
		t.Errorf("KS = %v, want %v", got, want)
	}
}
