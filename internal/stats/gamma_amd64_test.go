package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// gammaInputs are the vectors TestAVX2GammaMatchesGo runs at length n:
//   - every 4-bit mask of zero lanes, entered at both chain parities (the
//     first group has four normals, or three and a zero);
//   - a subnormal, ±Inf, NaN or -0 at each lane position of every third
//     group, so the body stops and resumes inside a sub-block;
//   - mantissas just below 2, the chains' largest products;
//   - a fill over the whole exponent range, zeros, subnormals and ±Inf
//     included.
func gammaInputs(rng *rand.Rand, n int) map[string][]float64 {
	normal := func() float64 { return rng.NormFloat64() * math.Exp(rng.NormFloat64()*4) }
	in := map[string][]float64{}
	for zeros := range 16 {
		for parity := range 2 {
			x := make([]float64, n)
			for i := range x {
				x[i] = normal()
				if i >= 4 && zeros>>(i%4)&1 == 1 || i == 3 && parity == 1 {
					x[i] = 0
				}
			}
			in[fmt.Sprintf("zeros=%04b parity=%d", zeros, parity)] = x
		}
	}
	for _, salt := range []float64{0x1p-1074, -0x1.8p-1030, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		for lane := range 4 {
			x := make([]float64, n)
			for i := range x {
				x[i] = normal()
				if i%4 == lane && i/4%3 == 1 {
					x[i] = salt
				}
			}
			in[fmt.Sprintf("salt=%v lane=%d", salt, lane)] = x
		}
	}
	below, wide := make([]float64, n), make([]float64, n)
	for i := range below {
		below[i] = math.Ldexp(math.Copysign(math.Nextafter(2, 0), rng.NormFloat64()), rng.Intn(64)-32)
		wide[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1076)
	}
	in["below-two"], in["wide"] = below, wide
	return in
}

// gammaStop is where the AVX2 body must stop on sub: the first group of
// four with a subnormal, ±Inf or NaN lane after the add, else len&^3.
func gammaStop(sub, g []float64) int {
	for i := 0; i+4 <= len(sub); i += 4 {
		for j, x := range sub[i : i+4] {
			if g != nil {
				x += g[i+j]
			}
			if a := math.Abs(x); a != 0 && (a < 0x1p-1022 || a > math.MaxFloat64 || x != x) {
				return i
			}
		}
	}
	return len(sub) &^ 3
}

// TestAVX2GammaMatchesGo holds the AVX2 body in gamma_amd64.s to the Go
// loop on math.Float64bits, with g nil and not nil: through gammaKernel's
// reduction (all three partials and the stored-back vector), and called
// alone from a non-trivial state (where it stops, the state after, and
// that it stored exactly the groups it ran). Lengths 0–9 put every tail
// length on both sides of a group; 511–513 and 4095–4097 straddle a
// sub-block and a block.
func TestAVX2GammaMatchesGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: gammaKernel runs the Go loop")
	}
	rng := rand.New(rand.NewSource(3))
	start := gammaState{abs: 0.5, p0: 1.25, p1: 1.75, exp: -3, n: 7, logs: -2}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 512, 513, 4095, 4096, 4097, 2*4096 + 1} {
		for name, x := range gammaInputs(rng, n) {
			acc, g := gammaAddends(rng, x)
			for _, c := range []struct {
				what   string
				acc, g []float64
			}{{"nil g", x, nil}, {"with g", acc, g}} {
				what := fmt.Sprintf("n=%d %s %s", n, name, c.what)
				want, wantAcc := gammaPartials(gammaLoop, c.acc, c.g)
				got, gotAcc := gammaPartials(gammaGroupsAVX2, c.acc, c.g)
				sameGammaBits(t, what, got, want, gotAcc, wantAcc)

				gotAcc = append(gotAcc[:0], c.acc...)
				out, k := gammaGroupsAVX2(gotAcc, c.g, start)
				if stop := gammaStop(c.acc, c.g); k != stop {
					t.Fatalf("%s: body ran %d elements, want %d", what, k, stop)
				}
				wantAcc = append(wantAcc[:0], c.acc...)
				ref, _ := gammaLoop(wantAcc[:k], window(c.g, 0, k), start)
				wantAcc = append(wantAcc[:k], c.acc[k:]...)
				sameGammaBits(t, what+" (body alone)",
					[3]float64{out.abs, out.p0, out.p1}, [3]float64{ref.abs, ref.p0, ref.p1}, gotAcc, wantAcc)
				if out.exp != ref.exp || out.n != ref.n || math.Float64bits(out.logs) != math.Float64bits(ref.logs) {
					t.Fatalf("%s (body alone): exp, n, logs = %d, %d, %v; Go loop %d, %d, %v", what, out.exp, out.n, out.logs, ref.exp, ref.n, ref.logs)
				}
			}
		}
	}
}

// TestGammaBodiesStayInBounds calls each gamma body on exact-length
// windows onto larger arrays and checks that the sentinels after the
// windows, and all of g, are untouched: the AVX2 body runs whole groups
// and must not round a length up. The sentinel is a normal number, which
// the body would take in stride.
func TestGammaBodiesStayInBounds(t *testing.T) {
	const pad = 8
	for _, path := range []struct {
		name string
		body func(sub, g []float64, s gammaState) (gammaState, int)
	}{{"portable", gammaLoop}, {"avx2", gammaGroupsAVX2}} {
		if path.name == "avx2" && !cpu.AVX2 {
			continue
		}
		for n := range 13 {
			for _, fill := range []float64{1.25, 0, -3e-310} {
				back, gback := make([]float64, n+pad), make([]float64, n+pad)
				for i := range back {
					back[i], gback[i] = 1.5, 0.5
					if i < n {
						back[i] = fill
					}
				}
				for _, g := range [][]float64{nil, gback[:n:n]} {
					path.body(back[:n:n], g, gammaState{p0: 1, p1: 1})
					for i := n; i < n+pad; i++ {
						if back[i] != 1.5 || gback[i] != 0.5 {
							t.Fatalf("%s n=%d fill=%v: wrote slot %d past the window", path.name, n, fill, i-n+1)
						}
					}
					for i := range n {
						if gback[i] != 0.5 {
							t.Fatalf("%s n=%d fill=%v: wrote g[%d]", path.name, n, fill, i)
						}
					}
				}
			}
		}
	}
}

// TestGammaQuadBodyStaysInBounds is TestGammaBodiesStayInBounds for the
// four-block body: four exact-length windows, one at the front of each
// block of an array that ends with the last window, sentinels after each
// window and after the array's end. The body must touch nothing outside
// the windows, and nothing of g (-0 in the windows, so that each sum
// keeps its fill's kind); a fill of normals runs every whole group, a
// fill of zeros every group on the long path, and a subnormal fill stops
// at block 0.
func TestGammaQuadBodyStaysInBounds(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: there is no four-block body")
	}
	const pad = 8
	for n := range 13 {
		for _, fill := range []float64{1.25, 0, -3e-310} {
			size := 3*sumBlock + n
			back, gback := make([]float64, size+pad), make([]float64, size+pad)
			inWindow := func(i int) bool { return i < size && i%sumBlock < n }
			for _, withG := range []bool{false, true} {
				for i := range back {
					back[i], gback[i] = 1.5, 0.5
					if inWindow(i) {
						back[i], gback[i] = fill, math.Copysign(0, -1)
					}
				}
				var g []float64
				if withG {
					g = gback[:size:size]
				}
				var s [4]gammaState
				for b := range s {
					s[b].p0, s[b].p1 = 1, 1
				}
				_, k, stop := gammaQuadAVX2(back[:size:size], g, n, s)
				wantK, wantStop := n&^3, 4
				if fill < 0 && n >= 4 {
					wantK, wantStop = 0, 0
				}
				if k != wantK || stop != wantStop {
					t.Fatalf("n=%d fill=%v g=%v: k, stop = %d, %d; want %d, %d", n, fill, withG, k, stop, wantK, wantStop)
				}
				for i := range back {
					if !inWindow(i) && back[i] != 1.5 {
						t.Fatalf("n=%d fill=%v g=%v: wrote slot %d, outside every window", n, fill, withG, i)
					}
					if !inWindow(i) && gback[i] != 0.5 || inWindow(i) && math.Float64bits(gback[i]) != 1<<63 {
						t.Fatalf("n=%d fill=%v g=%v: wrote g[%d]", n, fill, withG, i)
					}
				}
			}
		}
	}
}
