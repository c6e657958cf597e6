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
// destroys, subnormals, infinities, NaN, -0). It runs on each path.
func TestAccumulateMatchesAddThenMoments(t *testing.T) {
	onEachPath(func(path string) { t.Run(path, testAccumulateMatchesAddThenMoments) })
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

// streamLengths are the lengths the four-block loops are held to their
// one-block form at: around one block, around one group of four, a group
// and a tail of more than a block, train-sidco-tcp's d and 2^21.
var streamLengths = []int{0, 1, 4095, 4096, 4097, 4*4096 - 1, 4 * 4096, 4*4096 + 1, 5*4096 + 7, 1847306, 1 << 21}

// saltLanes puts, in every block of xs, so in each lane of every group of
// four blocks, the values an add chain can get wrong: -0, subnormals,
// ±Inf and a NaN whose payload names the lane.
func saltLanes(rng *rand.Rand, xs []float64) {
	for lo := 0; lo < len(xs); lo += sumBlock {
		nan := math.Float64frombits(0x7ff8000000000001 + uint64(lo/sumBlock%4))
		n := min(sumBlock, len(xs)-lo)
		for _, v := range []float64{math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), nan} {
			xs[lo+rng.Intn(n)] = v
		}
	}
}

// nanOrSameBits is bit equality, except that any NaN meets any NaN: Go
// leaves which payload an add of two NaNs keeps to the compiler (the add
// commutes, and register allocation picks the operand order).
func nanOrSameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestAbsSumMatchesOneBlock holds absSum, the four-block Σ|x| sweep of
// AccumulateMeanAbs, to reduce's one-block loop over absKernel on each
// path (portable: absQuad; avx2: absQuadAVX2): the sum and the updated acc
// by nanOrSameBits, at every streamLength, plain, with each lane salted
// (saltLanes) and with every lane of a group salted in one block while
// the other three are clean (saltGroups), and with acc passed as its own
// addend.
func TestAbsSumMatchesOneBlock(t *testing.T) {
	onEachPath(func(path string) { t.Run(path, testAbsSumMatchesOneBlock) })
}

func testAbsSumMatchesOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range streamLengths {
		for _, fill := range []string{"plain", "lanes", "groups"} {
			acc0, g := make([]float64, n), make([]float64, n)
			scale := 1.0
			for i := range g {
				if i%sumBlock == 0 {
					// Block partials of every size: the order they add in shows in the total.
					scale = math.Exp(rng.NormFloat64() * 12)
				}
				acc0[i], g[i] = scale*rng.NormFloat64(), scale*rng.NormFloat64()
			}
			switch fill {
			case "lanes":
				saltLanes(rng, acc0)
				saltLanes(rng, g)
			case "groups":
				saltGroups(acc0)
			}
			for _, alias := range []bool{false, true} {
				want, acc := append([]float64(nil), acc0...), append([]float64(nil), acc0...)
				wantG, gotG := g, g
				if alias {
					wantG, gotG = want, acc
				}
				wantSum := reduce(want, wantG, absKernel, 0)[0]
				what := fmt.Sprintf("n=%d %s alias=%v", n, fill, alias)
				if got := absSum(acc, gotG); !nanOrSameBits(got, wantSum) {
					t.Fatalf("%s: Σ|acc+g| = %v, one block at a time %v", what, got, wantSum)
				}
				for i := range want {
					if !nanOrSameBits(acc[i], want[i]) {
						t.Fatalf("%s: acc[%d] = %v, one block at a time %v", what, i, acc[i], want[i])
					}
				}
			}
		}
	}
}

// TestAbsQuadBodyStaysInBounds runs the four-block Σ|x| body of each path
// on slices whose backing arrays run on past 4·sumBlock, every slot there a
// sentinel: the body must write acc's first 4·sumBlock slots only, leave g
// alone, and return absQuad's four partials.
func TestAbsQuadBodyStaysInBounds(t *testing.T) {
	onEachPath(func(path string) {
		const n, pad = 4 * sumBlock, 64
		sentinel := math.Float64frombits(0x7ff4dead0000beef)
		rng := rand.New(rand.NewSource(47))
		acc, g := make([]float64, n+pad), make([]float64, n+pad)
		for i := range acc {
			acc[i], g[i] = rng.NormFloat64(), rng.NormFloat64()
			if i >= n {
				acc[i], g[i] = sentinel, sentinel
			}
		}
		wantAcc, gCopy := append([]float64(nil), acc...), append([]float64(nil), g...)
		w0, w1, w2, w3 := absQuad(wantAcc[:n], g[:n])
		s0, s1, s2, s3 := absQuadSweep(acc[:n], g[:n])
		if got, want := [4]float64{s0, s1, s2, s3}, [4]float64{w0, w1, w2, w3}; got != want {
			t.Fatalf("%s: partials %v, absQuad %v", path, got, want)
		}
		for i := range acc {
			if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) || math.Float64bits(g[i]) != math.Float64bits(gCopy[i]) {
				t.Fatalf("%s: slot %d: acc %v (want %v), g %v (want %v)", path, i, acc[i], wantAcc[i], g[i], gCopy[i])
			}
		}
	})
}

// TestAbsSumAddsPartialsInBlockOrder holds absSum to reduce on every
// prefix of whole groups of four blocks up to 2^19 elements. Partials
// much smaller than the running total round the same in any order (the
// total's ulp sets every rounding), so each group's entries are twice the
// last group's, which keeps the partials a quarter of the total; and a
// later total can round a difference away, so each group's total is
// checked where it is made.
func TestAbsSumAddsPartialsInBlockOrder(t *testing.T) {
	const group = 4 * sumBlock
	rng := rand.New(rand.NewSource(41))
	acc0, g := make([]float64, 32*group), make([]float64, 32*group)
	for i := range g {
		scale := math.Ldexp(1, i/group)
		acc0[i], g[i] = scale*rng.NormFloat64(), scale*rng.NormFloat64()
	}
	acc, want := make([]float64, len(acc0)), make([]float64, len(acc0))
	for n := group; n <= len(acc0); n += group {
		copy(acc, acc0)
		copy(want, acc0)
		if got, w := absSum(acc[:n], g[:n]), reduce(want[:n], g[:n], absKernel, 0)[0]; math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("n=%d: Σ|acc+g| = %v, one block at a time %v", n, got, w)
		}
	}
}

// saltGroups puts, in each block of xs, the values gammaKernel must leave
// to gammaLoop or take on its long path — 0, -0, two subnormals, ±Inf and
// a NaN whose payload names the lane — at every lane of a group, each at
// a group index no other block of its group of four blocks salts: the
// fallback fires inside one block while the other three are clean.
func saltGroups(xs []float64) {
	for lo := 0; lo < len(xs); lo += sumBlock {
		n := min(sumBlock, len(xs)-lo)
		for lane := range 4 {
			nan := math.Float64frombits(0x7ff8000000000001 + uint64(lane))
			for j, v := range []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), nan} {
				if i := 4*(1+8*(7*lane+j)+2*(lo/sumBlock%4)) + lane; i < n {
					xs[lo+i] = v
				}
			}
		}
	}
}

// TestGammaSumMatchesOneBlock holds gammaSum, the four-block gamma sweep
// of AccumulateGammaMoments, to the one-block loop over the Go body
// alone (reduce over gammaKernel with gammaLoop): the three partials and
// the updated vector by nanOrSameBits, at every streamLength, with g nil
// and not nil, on a plain vector, one salted by saltGroups and one with
// half its entries zero (groups that mix normal and zero lanes).
func TestGammaSumMatchesOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range streamLengths {
		for _, fill := range []string{"plain", "salted", "half-zero"} {
			v := make([]float64, n)
			scale := 1.0
			for i := range v {
				if i%sumBlock == 0 {
					scale = math.Exp(rng.NormFloat64() * 12)
				}
				v[i] = scale * rng.NormFloat64()
				if fill == "half-zero" && rng.Intn(2) == 0 {
					v[i] = 0
				}
			}
			if fill == "salted" {
				saltGroups(v)
			}
			acc, g := gammaAddends(rng, v)
			for _, c := range []struct {
				what   string
				acc, g []float64
			}{{"nil g", v, nil}, {"with g", acc, g}} {
				what := fmt.Sprintf("n=%d %s %s", n, fill, c.what)
				want, wantAcc := gammaPartials(gammaLoop, c.acc, c.g)
				gotAcc := append([]float64(nil), c.acc...)
				got := gammaSum(gotAcc, c.g)
				for i := range want {
					if !nanOrSameBits(got[i], want[i]) {
						t.Fatalf("%s: partial %d = %v, one block at a time %v", what, i, got[i], want[i])
					}
				}
				for i := range wantAcc {
					if !nanOrSameBits(gotAcc[i], wantAcc[i]) {
						t.Fatalf("%s: acc[%d] = %v, one block at a time %v", what, i, gotAcc[i], wantAcc[i])
					}
				}
			}
		}
	}
}

// TestGammaSumAddsPartialsInBlockOrder is TestAbsSumAddsPartialsInBlockOrder
// for gammaSum: every prefix of whole groups of four blocks up to 2^19
// elements, each group's entries twice the last group's, all three
// partials checked against reduce's where each group's total is made.
func TestGammaSumAddsPartialsInBlockOrder(t *testing.T) {
	const group = 4 * sumBlock
	rng := rand.New(rand.NewSource(46))
	acc0, g := make([]float64, 32*group), make([]float64, 32*group)
	for i := range g {
		scale := math.Ldexp(1, i/group)
		acc0[i], g[i] = scale*rng.NormFloat64(), scale*rng.NormFloat64()
	}
	acc, want := make([]float64, len(acc0)), make([]float64, len(acc0))
	for n := group; n <= len(acc0); n += group {
		copy(acc, acc0)
		copy(want, acc0)
		got, w := gammaSum(acc[:n], g[:n]), reduce(want[:n], g[:n], gammaKernel, 0)
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("n=%d: partial %d = %v, one block at a time %v", n, i, got[i], w[i])
			}
		}
	}
}

// TestAccumulateSteadyStateAllocs pins the accumulating reductions at
// zero allocations, on each path.
func TestAccumulateSteadyStateAllocs(t *testing.T) {
	onEachPath(func(path string) { t.Run(path, testAccumulateSteadyStateAllocs) })
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
// "MeanAbs/fused-one-block" and "GammaMoments/avx2/fused-one-block" are
// the fused sweeps one block at a time, the loops four-block absSum and
// gammaSum are held to.
// MeanAbs's fused row runs on each path (portable: absQuad; avx2:
// abs_amd64.s). GammaMoments runs on each path (portable: the Go loop;
// avx2: gamma_amd64.s), over the dense gradient and over one with half its
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
	// bytes is what a row moves an element: a fused row reads acc and g
	// and writes acc, 24 bytes; add+moments then reads acc again, 32.
	run := func(b *testing.B, g []float64, bytes int64, step func(acc, g []float64)) {
		flip := [2][]float64{make([]float64, d), make([]float64, d)}
		for i, x := range g {
			flip[0][i], flip[1][i] = -2*x, 2*x
		}
		acc := append([]float64(nil), g...)
		b.SetBytes(bytes * d)
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
			onEachPath(func(path string) {
				b.Run(k.name+"/"+path+"/fused", func(b *testing.B) { run(b, g, 24, k.fused) })
				b.Run(k.name+"/"+path+"/sparse", func(b *testing.B) { run(b, sparse, 24, k.fused) })
				if path == "avx2" {
					b.Run(k.name+"/"+path+"/fused-one-block", func(b *testing.B) {
						run(b, g, 24, func(acc, g []float64) { sinkMoment = reduce(acc, g, gammaKernel, 0)[0] / float64(len(acc)) })
					})
				}
			})
		} else if k.name == "MeanAbs" {
			onEachPath(func(path string) {
				b.Run(k.name+"/"+path+"/fused", func(b *testing.B) { run(b, g, 24, k.fused) })
			})
		} else {
			b.Run(k.name+"/fused", func(b *testing.B) { run(b, g, 24, k.fused) })
		}
		if k.name == "MeanAbs" {
			b.Run(k.name+"/fused-one-block", func(b *testing.B) {
				run(b, g, 24, func(acc, g []float64) { sinkMoment = reduce(acc, g, absKernel, 0)[0] / float64(len(acc)) })
			})
		}
		b.Run(k.name+"/add+moments", func(b *testing.B) {
			run(b, g, 32, func(acc, g []float64) {
				tensor.Add(g, acc)
				k.plain(acc)
			})
		})
	}
}
