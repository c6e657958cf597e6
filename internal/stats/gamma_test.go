package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// refMeanLogAbs is the loop gammaKernel replaced: one math.Log per
// non-zero entry. The logs are added through a compensated (Neumaier)
// sum so the reference stays good to an ulp where thousands of logs near
// ±700 pile up; once a term is ±Inf or NaN it returns what plain addition
// gives, which is what the old loop returned.
func refMeanLogAbs(xs []float64) float64 {
	sum, comp, plain := 0.0, 0.0, 0.0
	n := 0
	for _, x := range xs {
		a := math.Abs(x)
		if a == 0 {
			continue
		}
		l := math.Log(a)
		plain += l
		t := sum + l
		if math.Abs(sum) >= math.Abs(l) {
			comp += (sum - t) + l
		} else {
			comp += (l - t) + sum
		}
		sum = t
		n++
	}
	switch {
	case n == 0:
		return math.NaN()
	case math.IsInf(plain, 0) || math.IsNaN(plain):
		return plain / float64(n)
	}
	return (sum + comp) / float64(n)
}

// checkGammaMoments compares GammaMoments with MeanAbs (bit for bit) and
// with the per-element reference (NaN and ±Inf alike, finite values
// within tol).
func checkGammaMoments(t *testing.T, name string, xs []float64, tol float64) {
	t.Helper()
	mu, muLog := GammaMoments(xs)
	if want := MeanAbs(xs); math.Float64bits(mu) != math.Float64bits(want) {
		t.Errorf("%s: mean|x| = %v, MeanAbs %v", name, mu, want)
	}
	want := refMeanLogAbs(xs)
	ok := math.Abs(muLog-want) <= tol
	if math.IsNaN(want) || math.IsInf(want, 0) {
		ok = muLog == want || math.IsNaN(want) && math.IsNaN(muLog)
	}
	if !ok {
		t.Errorf("%s: mean log|x| = %v, reference %v (off by %g)", name, muLog, want, muLog-want)
	}
}

// gammaPartials runs gammaKernel's reduction with body as its sweep over a
// copy of xs (g added in, when not nil) and returns the three partials and
// the copy.
func gammaPartials(body func(sub, g []float64, s gammaState) (gammaState, int), xs, g []float64) ([3]float64, []float64) {
	chosen := gammaSweep
	defer func() { gammaSweep = chosen }()
	gammaSweep = body
	acc := append([]float64(nil), xs...)
	return reduce(acc, g, gammaKernel, 0), acc
}

// gammaAddends splits v into an accumulator and a gradient whose sum is
// of v's kind lane by lane: a zero is an exact cancellation, a normal the
// sum of two normals, anything else v plus -0 (which leaves it as it is).
func gammaAddends(rng *rand.Rand, v []float64) (acc, g []float64) {
	acc, g = make([]float64, len(v)), make([]float64, len(v))
	for i, x := range v {
		switch a := math.Abs(x); {
		case a == 0:
			r := rng.NormFloat64()
			acc[i], g[i] = r, -r
		case a >= 0x1p-1000 && a <= 0x1p1000:
			acc[i], g[i] = x, x*0x1p-20*rng.NormFloat64()
		default:
			acc[i], g[i] = x, math.Copysign(0, -1)
		}
	}
	return acc, g
}

// sameGammaBits fails t unless two runs of gammaPartials agree on
// math.Float64bits, partials and stored-back vector alike.
func sameGammaBits(t *testing.T, what string, got, want [3]float64, gotAcc, wantAcc []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: partial %d = %v (%#x), Go loop %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i := range wantAcc {
		if math.Float64bits(gotAcc[i]) != math.Float64bits(wantAcc[i]) {
			t.Fatalf("%s: acc[%d] = %v, Go loop %v", what, i, gotAcc[i], wantAcc[i])
		}
	}
}

// gammaLengths straddle the kernel's sub-block (512) and the reduction
// block (4096).
var gammaLengths = []int{0, 1, 511, 512, 513, 4095, 4096, 4097, 2*4096 + 1}

// onEachPath calls run once per set of vector bodies this machine can
// run — "portable" (the Go loops: gammaLoop with no four-block gamma body,
// absQuad) and, where init chose the AVX2 bodies, "avx2" (gamma_amd64.s,
// abs_amd64.s) — with gammaKernel, gammaSum and absSum pointed at those
// bodies, as init would point them, and restores init's choice after.
func onEachPath(run func(path string)) {
	chosen, chosenQuad, chosenAbs := gammaSweep, gammaQuadSweep, absQuadSweep
	defer func() { gammaSweep, gammaQuadSweep, absQuadSweep = chosen, chosenQuad, chosenAbs }()
	gammaSweep, gammaQuadSweep, absQuadSweep = gammaLoop, nil, absQuad
	run("portable")
	if cpu.AVX2 {
		gammaSweep, gammaQuadSweep, absQuadSweep = chosen, chosenQuad, chosenAbs
		run("avx2")
	}
}

func TestGammaMomentsMatchesPerElementLog(t *testing.T) {
	onEachPath(func(path string) { t.Run(path, testGammaMomentsMatchesPerElementLog) })
}

func testGammaMomentsMatchesPerElementLog(t *testing.T) {
	const sub = 0x1p-1074 // smallest subnormal
	fills := map[string]func(i int, rng *rand.Rand) float64{
		"gradient-like": func(_ int, rng *rand.Rand) float64 { return rng.NormFloat64() * 1e-3 * math.Exp(rng.NormFloat64()) },
		"wide":          func(_ int, rng *rand.Rand) float64 { return rng.NormFloat64() * math.Exp(rng.NormFloat64()*40) },
		"all-equal":     func(int, *rand.Rand) float64 { return -0.75 },
		"powers-of-two": func(i int, _ *rand.Rand) float64 { return math.Ldexp(1, i%64-32) },
		"1e+-300":       func(i int, _ *rand.Rand) float64 { return []float64{1e300, -1e-300, -3e299, 7e-301}[i%4] },
		"huge":          func(int, *rand.Rand) float64 { return 1e300 },
		"tiny":          func(int, *rand.Rand) float64 { return -0x1p-1022 },
		"below-two":     func(int, *rand.Rand) float64 { return math.Nextafter(2, 0) },
		"sparse": func(_ int, rng *rand.Rand) float64 {
			if rng.Intn(4) != 0 {
				return 0
			}
			return rng.NormFloat64()
		},
		"some-subnormals": func(i int, rng *rand.Rand) float64 {
			if i%97 == 0 {
				return sub * float64(1+rng.Intn(1000))
			}
			return rng.NormFloat64()
		},
		"all-zero": func(int, *rand.Rand) float64 { return 0 },
		"one-inf": func(i int, rng *rand.Rand) float64 {
			if i == 0 {
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		},
		"one-nan": func(i int, rng *rand.Rand) float64 {
			if i%600 == 599 || i == 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		},
		"inf-and-zero": func(i int, _ *rand.Rand) float64 { return []float64{0, math.Inf(1)}[i%2] },
	}
	for name, fill := range fills {
		rng := rand.New(rand.NewSource(11))
		for _, n := range gammaLengths {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = fill(i, rng)
			}
			checkGammaMoments(t, name, xs, 1e-12)
		}
	}
	if _, muLog := GammaMoments([]float64{math.E, -math.E, 0, 0}); math.Abs(muLog-1) > 1e-15 {
		t.Errorf("zeros not skipped: mean log = %v, want 1", muLog)
	}
}

func FuzzGammaMoments(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(1.5, -2.5e-3, 0, 1e300), uint16(513))
	f.Add(word(0x1p-1074, 3, math.Inf(1)), uint16(4097))
	f.Add(word(math.NaN(), 1), uint16(7))
	f.Add(word(0), uint16(100))
	f.Add(word(1.5, 0, -2.5e-3, 5e-324, 7, math.Inf(-1), 0, 2), uint16(5*4096+1))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// The vector cycles through the 8-byte words of data, so a short
		// input still reaches past a block boundary; g is the same cycle
		// one word on.
		words := len(data) / 8
		xs := make([]float64, 0, int(n)%(5*sumBlock+2))
		g := make([]float64, 0, cap(xs))
		tol := 1e-12
		for i := 0; words > 0 && i < cap(xs); i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i%words*8:]))
			if a := math.Abs(x); a != 0 && a < 0x1p-1022 {
				// Subnormals take math.Log one by one and add up
				// uncompensated, as the old loop did for every entry.
				tol = 1e-9
			}
			xs = append(xs, x)
			g = append(g, math.Float64frombits(binary.LittleEndian.Uint64(data[(i+1)%words*8:])))
		}
		checkGammaMoments(t, "fuzz", xs, tol)
		for _, g := range [][]float64{nil, g} {
			want, wantAcc := gammaPartials(gammaLoop, xs, g)
			got, gotAcc := gammaPartials(gammaSweep, xs, g)
			sameGammaBits(t, "fuzz", got, want, gotAcc, wantAcc)
			gotAcc = append(gotAcc[:0], xs...)
			got = gammaSum(gotAcc, g)
			for i := range want {
				if !nanOrSameBits(got[i], want[i]) {
					t.Fatalf("fuzz: four-block partial %d = %v, Go loop %v", i, got[i], want[i])
				}
			}
			for i := range wantAcc {
				if !nanOrSameBits(gotAcc[i], wantAcc[i]) {
					t.Fatalf("fuzz: four-block acc[%d] = %v, Go loop %v", i, gotAcc[i], wantAcc[i])
				}
			}
		}
	})
}

var sinkGamma GammaParams

// BenchmarkFitGammaAbs is the gamma fit at the dimension of the step
// benchmark's grad-sidcogp-d2m workload (d = 2^21, beyond L2).
func BenchmarkFitGammaAbs(b *testing.B) {
	xs := sampleN(DoubleGamma{Shape: 0.6, Scale: 0.015}, 1<<21, 1)
	b.SetBytes(8 << 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGamma = FitGammaAbs(xs)
	}
}
