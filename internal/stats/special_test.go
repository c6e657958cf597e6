package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegularizedGammaPKnownValues(t *testing.T) {
	// Reference values from the identity P(1, x) = 1 - e^-x and
	// published tables for other shapes.
	cases := []struct {
		a, x, want float64
	}{
		{1, 1, 1 - math.Exp(-1)},
		{1, 0.5, 1 - math.Exp(-0.5)},
		{1, 5, 1 - math.Exp(-5)},
		{0.5, 0.5, math.Erf(math.Sqrt(0.5))}, // P(1/2, x) = erf(sqrt(x))
		{0.5, 2, math.Erf(math.Sqrt(2))},
		{2, 2, 1 - 3*math.Exp(-2)},   // P(2,x) = 1-(1+x)e^-x
		{3, 3, 1 - 8.5*math.Exp(-3)}, // P(3,x) = 1-(1+x+x^2/2)e^-x
		{10, 10, 0.5420702855281477}, // scipy.special.gammainc(10,10)
	}
	for _, c := range cases {
		got := RegularizedGammaP(c.a, c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RegularizedGammaP(%v, %v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestRegularizedGammaPQComplementary(t *testing.T) {
	// P's two branches, the series for P below x = a+1 and the continued
	// fraction for Q = 1-P above it, must agree around the switch.
	f := func(aRaw, dRaw float64) bool {
		a := 0.05 + math.Mod(math.Abs(aRaw), 20)
		x := a + 1 + math.Mod(dRaw, 0.5)
		return math.Abs(gammaPSeries(a, x)+gammaQContinuedFraction(a, x)-1) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegularizedGammaPEdgeCases(t *testing.T) {
	if got := RegularizedGammaP(2, 0); got != 0 {
		t.Errorf("P(2,0) = %v, want 0", got)
	}
	if got := RegularizedGammaP(2, math.Inf(1)); got != 1 {
		t.Errorf("P(2,Inf) = %v, want 1", got)
	}
	if got := RegularizedGammaP(-1, 1); !math.IsNaN(got) {
		t.Errorf("P(-1,1) = %v, want NaN", got)
	}
}

func TestRegularizedGammaPMonotone(t *testing.T) {
	for _, a := range []float64{0.3, 0.7, 1, 2.5, 9} {
		prev := -1.0
		for x := 0.0; x < 30; x += 0.25 {
			p := RegularizedGammaP(a, x)
			if p < prev-1e-14 {
				t.Fatalf("P(%v, x) not monotone at x=%v: %v < %v", a, x, p, prev)
			}
			if p < 0 || p > 1 {
				t.Fatalf("P(%v, %v) = %v out of [0,1]", a, x, p)
			}
			prev = p
		}
	}
}

func TestInverseRegularizedGammaPRoundTrip(t *testing.T) {
	for _, a := range []float64{0.2, 0.5, 0.9, 1, 1.5, 3, 8, 25} {
		for _, p := range []float64{1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 0.999999} {
			x := InverseRegularizedGammaP(a, p)
			if x < 0 || math.IsNaN(x) {
				t.Fatalf("InverseRegularizedGammaP(%v, %v) = %v", a, p, x)
			}
			back := RegularizedGammaP(a, x)
			if math.Abs(back-p) > 1e-8 {
				t.Errorf("round trip a=%v p=%v: got P(a, x)=%v", a, p, back)
			}
		}
	}
}

func TestInverseRegularizedGammaPEdgeCases(t *testing.T) {
	if got := InverseRegularizedGammaP(2, 0); got != 0 {
		t.Errorf("inverse at p=0: got %v, want 0", got)
	}
	for _, bad := range []struct{ a, p float64 }{{-1, 0.5}, {2, -0.1}, {2, 1}, {2, 1.5}} {
		if got := InverseRegularizedGammaP(bad.a, bad.p); !math.IsNaN(got) {
			t.Errorf("inverse(%v, %v) = %v, want NaN", bad.a, bad.p, got)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.9, 1.2815515655446004},
		{0.025, -1.959963984540054},
		{1e-6, -4.753424308822899},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		if p == 0 {
			p = 0.5
		}
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile outside [0,1] should be NaN")
	}
}

func TestLogGamma(t *testing.T) {
	if got := LogGamma(1); math.Abs(got) > 1e-15 {
		t.Errorf("LogGamma(1) = %v, want 0", got)
	}
	if got := LogGamma(5); math.Abs(got-math.Log(24)) > 1e-12 {
		t.Errorf("LogGamma(5) = %v, want log(24)", got)
	}
}
