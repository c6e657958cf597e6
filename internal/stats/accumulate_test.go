package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestAccumulateMatchesAddThenMoments holds the three accumulating
// reductions to "add, then the one-operand reduction": the updated acc by
// bit pattern, the moments by bit pattern, across block boundaries, with
// the values a fused kernel can get wrong (zeros that the add creates or
// destroys, subnormals, infinities, NaN, -0). It runs on each gamma body.
func TestAccumulateMatchesAddThenMoments(t *testing.T) {
	onEachGammaPath(func(path string) { t.Run(path, testAccumulateMatchesAddThenMoments) })
}

func testAccumulateMatchesAddThenMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	salt := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, n := range []int{0, 1, 511, 512, 513, 4095, 4096, 4097, 2*4096 + 1, 1<<17 + 311} {
		for _, salted := range []bool{false, true} {
			acc0, g := make([]float64, n), make([]float64, n)
			for i := range g {
				acc0[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
				g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
				switch {
				case rng.Intn(16) == 0:
					g[i] = -acc0[i] // the sum is an exact zero
				case salted && rng.Intn(8) == 0:
					acc0[i] = salt[rng.Intn(len(salt))]
				case salted && rng.Intn(8) == 0:
					g[i] = salt[rng.Intn(len(salt))]
				}
			}
			want := append([]float64(nil), acc0...)
			tensor.Add(g, want)
			wantAbs := MeanAbs(want)
			wantMean, wantVar := MeanVarAbs(want)
			wantGMean, wantGLog := GammaMoments(want)

			what := fmt.Sprintf("n=%d salted=%v", n, salted)
			check := func(name string, acc []float64, got, wantMoments []float64) {
				t.Helper()
				for i := range wantMoments {
					if math.Float64bits(got[i]) != math.Float64bits(wantMoments[i]) {
						t.Fatalf("%s: %s moment %d = %v, add-then-reduce %v", what, name, i, got[i], wantMoments[i])
					}
				}
				for i := range want {
					if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: %s left acc[%d] = %v, want %v", what, name, i, acc[i], want[i])
					}
				}
			}
			acc := append([]float64(nil), acc0...)
			check("AccumulateMeanAbs", acc, []float64{AccumulateMeanAbs(acc, g)}, []float64{wantAbs})
			acc = append(acc[:0], acc0...)
			m, v := AccumulateMeanVarAbs(acc, g)
			check("AccumulateMeanVarAbs", acc, []float64{m, v}, []float64{wantMean, wantVar})
			acc = append(acc[:0], acc0...)
			gm, gl := AccumulateGammaMoments(acc, g)
			check("AccumulateGammaMoments", acc, []float64{gm, gl}, []float64{wantGMean, wantGLog})
		}
	}
}

// TestAccumulateSteadyStateAllocs pins the accumulating reductions at
// zero allocations, on each gamma body.
func TestAccumulateSteadyStateAllocs(t *testing.T) {
	onEachGammaPath(func(path string) { t.Run(path, testAccumulateSteadyStateAllocs) })
}

func testAccumulateSteadyStateAllocs(t *testing.T) {
	acc, g := make([]float64, 1<<15), sampleN(Laplace{Scale: 0.01}, 1<<15, 2)
	if n := testing.AllocsPerRun(20, func() {
		sinkMoment += AccumulateMeanAbs(acc, g)
		m, v := AccumulateMeanVarAbs(acc, g)
		gm, gl := AccumulateGammaMoments(acc, g)
		sinkMoment += m + v + gm + gl
	}); n != 0 {
		t.Fatalf("accumulating reductions allocate %v times per run", n)
	}
}

var sinkMoment float64

// BenchmarkAccumulate is the first SIDCo sweep under error feedback at
// d = 2^21, per family: "fused" is the add riding the moment pass,
// "add+moments" is the add as its own sweep followed by the one-operand
// pass — what ErrorFeedback runs over a compressor that does not offer
// the fused form. The difference is the fused add's standalone saving.
// GammaMoments runs on each body (portable: the Go loop; avx2:
// gamma_amd64.s), over the dense gradient and over one with half its
// entries zero at random ("sparse"), whose groups of four mix normal and
// zero lanes.
func BenchmarkAccumulate(b *testing.B) {
	const d = 1 << 21
	g := sampleN(DoubleGamma{Shape: 0.6, Scale: 0.015}, d, 1)
	sparse := append([]float64(nil), g...)
	rng := rand.New(rand.NewSource(2))
	for i := range sparse {
		if rng.Intn(2) == 0 {
			sparse[i] = 0
		}
	}
	run := func(b *testing.B, g []float64, step func(acc, g []float64)) {
		flip := [2][]float64{make([]float64, d), make([]float64, d)}
		for i, x := range g {
			flip[0][i], flip[1][i] = -2*x, 2*x
		}
		acc := append([]float64(nil), g...)
		b.SetBytes(8 * d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(acc, flip[i%2]) // acc alternates between -g and g: it neither grows nor cancels to zeros
		}
	}
	for _, k := range []struct {
		name  string
		fused func(acc, g []float64)
		plain func(acc []float64)
	}{
		{"MeanAbs", func(acc, g []float64) { sinkMoment = AccumulateMeanAbs(acc, g) }, func(acc []float64) { sinkMoment = MeanAbs(acc) }},
		{"MeanVarAbs", func(acc, g []float64) { sinkMoment, _ = AccumulateMeanVarAbs(acc, g) }, func(acc []float64) { sinkMoment, _ = MeanVarAbs(acc) }},
		{"GammaMoments", func(acc, g []float64) { sinkMoment, _ = AccumulateGammaMoments(acc, g) }, func(acc []float64) { sinkMoment, _ = GammaMoments(acc) }},
	} {
		if k.name == "GammaMoments" {
			onEachGammaPath(func(path string) {
				b.Run(k.name+"/"+path+"/fused", func(b *testing.B) { run(b, g, k.fused) })
				b.Run(k.name+"/"+path+"/sparse", func(b *testing.B) { run(b, sparse, k.fused) })
			})
		} else {
			b.Run(k.name+"/fused", func(b *testing.B) { run(b, g, k.fused) })
		}
		b.Run(k.name+"/add+moments", func(b *testing.B) {
			run(b, g, func(acc, g []float64) {
				tensor.Add(g, acc)
				k.plain(acc)
			})
		})
	}
}
