package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// withGather runs fn with the exceedance path pointed at k.
func withGather(k *gatherKernels, fn func()) {
	chosen := gather
	defer func() { gather = chosen }()
	gather = k
	fn()
}

// laneSalted returns a length-n vector of Gaussian noise with v at every
// index ≡ lane (mod 4), so that v meets every lane of the vector body and
// every position of the scalar tail.
func laneSalted(rng *rand.Rand, n, lane int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i%4 == lane {
			x[i] = v
		}
	}
	return x
}

// TestAVX2GatherMatchesGo holds each AVX2 body in gather_amd64.s to its Go
// twin on math.Float64bits and on indices, through PairsAboveThreshold and
// CompactPairsAbove (which hand a body each block's whole groups of four
// and finish the rest in Go): lengths 0–9 put every tail length on both
// sides of the four-lane body, 4095–4097 straddle a block's end. A NaN,
// ±0, ±Inf, a subnormal and ±eta sit at every lane position, against eta
// 0, NaN, +Inf, -1 and 0.75, with base 0, 11 and one that wraps int32.
func TestAVX2GatherMatchesGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: the gather runs the Go loops")
	}
	subnormal := math.Float64frombits(0x000f_0000_0000_0001)
	etas := []float64{0, math.NaN(), math.Inf(1), -1, 0.75}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096, 4097} {
		for _, eta := range etas {
			salts := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), subnormal, -subnormal, eta, -eta}
			var inputs [][]float64
			for _, v := range salts {
				for lane := range 4 {
					inputs = append(inputs, laneSalted(rng, n, lane, v))
				}
			}
			inputs = append(inputs, specials(n, int64(n)))
			for k, x := range inputs {
				for _, base := range []int32{0, 11, math.MaxInt32 - 6} {
					what := fmt.Sprintf("n=%d eta=%v input %d base %d", n, eta, k, base)
					var wantM, gotM []float64
					var wantI, gotI []int32
					var wantEx, gotEx Excess
					withGather(&goGather, func() { wantM, wantI, wantEx = PairsAboveThreshold(x, eta, base, nil, nil) })
					withGather(&avx2Gather, func() { gotM, gotI, gotEx = PairsAboveThreshold(x, eta, base, nil, nil) })
					sameBits(t, what+" pairs", gotM, wantM)
					sameIdx(t, what+" pairs", gotI, wantI)
					sameExcess(t, what+" pairs", gotEx, wantEx)
				}
				// The compaction reads its list as given: signed values, NaNs
				// and all, with indices of their own.
				idx := make([]int32, len(x))
				for i := range idx {
					idx[i] = rng.Int31()
				}
				what := fmt.Sprintf("n=%d eta=%v input %d compact", n, eta, k)
				var wantM, gotM []float64
				var wantI, gotI []int32
				var wantEx, gotEx Excess
				withGather(&goGather, func() { wantM, wantI, wantEx = CompactPairsAbove(nil, nil, x, idx, eta) })
				withGather(&avx2Gather, func() { gotM, gotI, gotEx = CompactPairsAbove(nil, nil, x, idx, eta) })
				sameBits(t, what, gotM, wantM)
				sameIdx(t, what, gotI, wantI)
				sameExcess(t, what, gotEx, wantEx)
			}
		}
	}
}

// TestGatherKernelsStayInBounds calls each gather body with outM and outI
// exact-length windows onto larger arrays and checks that the sentinel
// words after the windows are untouched: a body's full-width stores may
// run past its cursor, never past the slices it was handed. Every element
// kept, none kept and a mix, at every length 0–12: the bodies take the
// whole groups of four and must not round a length up.
func TestGatherKernelsStayInBounds(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: the gather runs the Go loops")
	}
	const pad = 8
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, path := range []struct {
		name string
		k    *gatherKernels
	}{{"portable", &goGather}, {"avx2", &avx2Gather}} {
		name, k := path.name, path.k
		for n := range 13 {
			for _, eta := range []float64{-1, math.Inf(1), 0.5} {
				x := specials(n, int64(n))
				idx := make([]int32, n)
				backM, backI := make([]float64, n+pad), make([]int32, n+pad)
				for i := range backM {
					backM[i], backI[i] = sentinel, -7
				}
				check := func(what string) {
					t.Helper()
					for i := n; i < n+pad; i++ {
						if math.Float64bits(backM[i]) != math.Float64bits(sentinel) || backI[i] != -7 {
							t.Fatalf("%s %s n=%d eta=%v: wrote slot %d past the window", name, what, n, eta, i-n+1)
						}
					}
				}
				k.pairs(x, eta, 0, backM[:n:n], backI[:n:n])
				check("pairs")
				k.compact(x, idx, eta, backM[:n:n], backI[:n:n])
				check("compact")
			}
		}
	}
}
