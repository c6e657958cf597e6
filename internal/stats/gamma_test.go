package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
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

// gammaLengths straddle the kernel's sub-block (512) and the reduction
// block (4096).
var gammaLengths = []int{0, 1, 511, 512, 513, 4095, 4096, 4097, 2*4096 + 1}

func TestGammaMomentsMatchesPerElementLog(t *testing.T) {
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
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// The vector cycles through the 8-byte words of data, so a short
		// input still reaches past a block boundary.
		words := len(data) / 8
		xs := make([]float64, 0, int(n)%(2*sumBlock+2))
		tol := 1e-12
		for i := 0; words > 0 && i < cap(xs); i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i%words*8:]))
			if a := math.Abs(x); a != 0 && a < 0x1p-1022 {
				// Subnormals take math.Log one by one and add up
				// uncompensated, as the old loop did for every entry.
				tol = 1e-9
			}
			xs = append(xs, x)
		}
		checkGammaMoments(t, "fuzz", xs, tol)
		pm, pl := (&Par{P: 3}).GammaMoments(xs)
		sm, sl := GammaMoments(xs)
		if math.Float64bits(pm) != math.Float64bits(sm) || math.Float64bits(pl) != math.Float64bits(sl) {
			t.Errorf("P=3 (%v, %v) != serial (%v, %v)", pm, pl, sm, sl)
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
