package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveValuesAbove is the branchy append loop ValuesAboveThreshold
// replaced, kept as the reference the blocked kernel is held bit-equal to.
func naiveValuesAbove(x []float64, eta float64, dst []float64) []float64 {
	for _, xi := range x {
		if a := math.Abs(xi); a > eta {
			dst = append(dst, a)
		}
	}
	return dst
}

// specials builds a length-d vector of Gaussian noise salted with the
// values a comparison kernel can get wrong: NaN, both infinities, both
// zeros and a repeated magnitude to use as an exact-tie threshold.
func specials(d int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0.75, -0.75}
	x := make([]float64, d)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = salt[rng.Intn(len(salt))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestValuesAboveMatchesNaive holds the blocked store-then-advance gather
// bit-equal to the naive loop: block-boundary lengths, degenerate
// thresholds, special values, a non-empty dst, the dst = x[:0] in-place
// compaction the later SIDCo stages use, and the Par fan-out on top.
func TestValuesAboveMatchesNaive(t *testing.T) {
	lengths := []int{0, 1, gatherBlock - 1, gatherBlock, gatherBlock + 1, 3*gatherBlock + 17}
	if !testing.Short() {
		lengths = append(lengths, 1<<21)
	}
	for _, d := range lengths {
		inputs := map[string][]float64{
			"specials": specials(d, int64(d)+1),
			"ones":     make([]float64, d), // all-above at eta < 1, none-above at eta >= 1
		}
		Fill(inputs["ones"], -1)
		for name, x := range inputs {
			for _, eta := range []float64{0, math.NaN(), math.Inf(1), 0.75, 0.5, 1, -1} {
				for _, p := range []int{1, 2, 3} {
					what := fmt.Sprintf("%s d=%d eta=%v P=%d", name, d, eta, p)
					pp := &Par{P: p}

					want := naiveValuesAbove(x, eta, nil)
					sameBits(t, what, pp.ValuesAbove(x, eta, nil), want)

					prefix := []float64{7, -8, math.NaN()}
					want = naiveValuesAbove(x, eta, append([]float64(nil), prefix...))
					sameBits(t, what+" dst non-empty", pp.ValuesAbove(x, eta, append([]float64(nil), prefix...)), want)

					// Exact-capacity dst: every block must grow it.
					sameBits(t, what+" dst full", pp.ValuesAbove(x, eta, prefix[:3:3]), want)

					want = naiveValuesAbove(x, eta, nil)
					alias := append([]float64(nil), x...)
					sameBits(t, what+" dst = x[:0]", pp.ValuesAbove(alias, eta, alias[:0]), want)
				}
			}
		}
	}
}

// TestValuesAboveSteadyStateAllocs pins the reuse contract: once dst has
// room for the exceedances plus one block of headroom, the gather
// allocates nothing.
func TestValuesAboveSteadyStateAllocs(t *testing.T) {
	x := specials(1<<16, 9)
	dst := ValuesAboveThreshold(x, 0.5, nil)
	if n := testing.AllocsPerRun(20, func() { dst = ValuesAboveThreshold(x, 0.5, dst[:0]) }); n != 0 {
		t.Fatalf("steady-state gather allocates %v times per run", n)
	}
}

var sinkVals []float64

// gaussMix is a tie-free heavy-tailed vector, so a quantile threshold
// hits the requested selectivity exactly.
func gaussMix(d int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, d)
	for i := range g {
		g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	return g
}

// quantileEta returns the threshold that |g| exceeds on a sel share of
// its elements.
func quantileEta(g []float64, sel float64) float64 {
	return QuickSelectKth(Abs(g, nil), int(sel*float64(len(g)))+1)
}

// BenchmarkValuesAbove is the stage-1 exceedance gather at d = 2^21 and
// the ~30% selectivity of SIDCo's first stage (delta1 = 0.25 plus the
// fit's over-selection), where the comparison is a coin flip to a branch
// predictor. The naive row is the loop the kernel replaced.
func BenchmarkValuesAbove(b *testing.B) {
	g := gaussMix(1<<21, 3)
	eta := quantileEta(g, 0.30)
	dst := make([]float64, 0, len(g))
	for _, k := range []struct {
		name string
		fn   func(x []float64, eta float64, dst []float64) []float64
	}{{"blocked", ValuesAboveThreshold}, {"naive", naiveValuesAbove}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(g)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVals = k.fn(g, eta, dst[:0])
			}
		})
	}
}
