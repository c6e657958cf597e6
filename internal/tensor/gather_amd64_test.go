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

// vectorGathers are the assembly bodies, narrowest first, each with
// whether this CPU runs it.
var vectorGathers = []gatherPath{
	{"avx2", &avx2Gather, cpu.AVX2},
	{"avx512", &avx512Gather, cpu.AVX512},
}

// onEachVectorGather runs each of vectorGathers as a subtest, and skips,
// by name, the ones this CPU lacks, so that a log shows which bodies ran.
func onEachVectorGather(t *testing.T, run func(t *testing.T, k *gatherKernels)) {
	for _, p := range vectorGathers {
		t.Run(p.name, func(t *testing.T) {
			if !p.has {
				t.Skipf("this CPU cannot run the %s gather: the exceedance path does not use it", p.name)
			}
			run(t, p.k)
		})
	}
}

// laneSalted returns a length-n vector of Gaussian noise with v at every
// index ≡ lane (mod 8), so that v meets every lane of both vector widths
// and every position of the scalar tail.
func laneSalted(rng *rand.Rand, n, lane int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i%8 == lane {
			x[i] = v
		}
	}
	return x
}

// TestAVX2GatherMatchesGo holds each vector body — gather_amd64.s (AVX2,
// four lanes) and gather512_amd64.s (AVX-512, eight lanes and a trailing
// four) — to its Go twin on math.Float64bits and on indices, through
// PairsAboveThreshold and CompactPairsAbove (which hand a body each
// block's whole groups of four and finish the rest in Go): lengths 0–17
// put every tail length on both sides of the eight- and four-lane loops,
// 4095–4097 straddle a block's end. A NaN, ±0, ±Inf, a subnormal and ±eta
// sit at every lane position mod 8, against eta 0, NaN, +Inf, -1 and
// 0.75, with base 0, 11 and one that wraps int32; the top-k gather takes
// each eta's masked bits as its floor, and 0 and 2^63 besides.
func TestAVX2GatherMatchesGo(t *testing.T) {
	onEachVectorGather(t, testVectorGatherMatchesGo)
}

func testVectorGatherMatchesGo(t *testing.T, k *gatherKernels) {
	subnormal := math.Float64frombits(0x000f_0000_0000_0001)
	etas := []float64{0, math.NaN(), math.Inf(1), -1, 0.75}
	rng := rand.New(rand.NewSource(1))
	var lengths []int
	for n := range 18 {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 4095, 4096, 4097) {
		for _, eta := range etas {
			salts := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), subnormal, -subnormal, eta, -eta}
			var inputs [][]float64
			for _, v := range salts {
				for lane := range 8 {
					inputs = append(inputs, laneSalted(rng, n, lane, v))
				}
			}
			inputs = append(inputs, specials(n, int64(n)))
			for i, x := range inputs {
				for _, base := range []int32{0, 11, math.MaxInt32 - 6} {
					what := fmt.Sprintf("n=%d eta=%v input %d base %d", n, eta, i, base)
					var wantM, gotM []float64
					var wantI, gotI []int32
					var wantEx, gotEx Excess
					withGather(&goGather, func() { wantM, wantI, wantEx = PairsAboveThreshold(x, eta, base, nil, nil) })
					withGather(k, func() { gotM, gotI, gotEx = PairsAboveThreshold(x, eta, base, nil, nil) })
					sameBits(t, what+" pairs", gotM, wantM)
					sameIdx(t, what+" pairs", gotI, wantI)
					sameExcess(t, what+" pairs", gotEx, wantEx)
				}
				// The top-k gather compares masked bits against a floor and
				// keeps the signed values.
				for _, floor := range []uint64{0, math.Float64bits(eta) & absMask, 1 << 63} {
					what := fmt.Sprintf("n=%d floor=%#x input %d atLeast", n, floor, i)
					wantV, wantI := atLeastVia(&goGather, x, floor)
					gotV, gotI := atLeastVia(k, x, floor)
					sameBits(t, what, gotV, wantV)
					sameIdx(t, what, gotI, wantI)
				}
				// The compaction reads its list as given: signed values, NaNs
				// and all, with indices of their own.
				idx := make([]int32, len(x))
				for j := range idx {
					idx[j] = rng.Int31()
				}
				what := fmt.Sprintf("n=%d eta=%v input %d compact", n, eta, i)
				var wantM, gotM []float64
				var wantI, gotI []int32
				var wantEx, gotEx Excess
				withGather(&goGather, func() { wantM, wantI, wantEx = CompactPairsAbove(nil, nil, x, idx, eta) })
				withGather(k, func() { gotM, gotI, gotEx = CompactPairsAbove(nil, nil, x, idx, eta) })
				sameBits(t, what, gotM, wantM)
				sameIdx(t, what, gotI, wantI)
				sameExcess(t, what, gotEx, wantEx)
			}
		}
	}
}

// atLeastVia is TopKAccumulateInto's gather over x with the kernels k:
// the body over the whole groups of eight, the Go loop over the rest.
func atLeastVia(k *gatherKernels, x []float64, floor uint64) ([]float64, []int32) {
	vals, idx := make([]float64, len(x)+gatherSlack), make([]int32, len(x)+gatherSlack)
	v := len(x) &^ 7
	m := k.atLeast(x[:v], floor, 0, vals, idx)
	m += atLeast(x[v:], floor, int32(v), vals[m:], idx[m:])
	return vals[:m], idx[:m]
}

// TestGatherKernelsStayInBounds calls each gather body with outM and outI
// exact-length windows onto larger arrays and checks that the sentinel
// words after the windows are untouched: a body's full-width stores may
// run past its cursor, never past the slices it was handed. Every element
// kept, none kept and a mix, at every length 0–25: the bodies take the
// whole groups of four (the top-k gather's, of eight) and must not round a
// length up, to four or to eight.
func TestGatherKernelsStayInBounds(t *testing.T) {
	t.Run("portable", func(t *testing.T) { testGatherKernelsStayInBounds(t, &goGather) })
	onEachVectorGather(t, testGatherKernelsStayInBounds)
}

func testGatherKernelsStayInBounds(t *testing.T, k *gatherKernels) {
	const pad = 8
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	for n := range 26 {
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
						t.Fatalf("%s n=%d eta=%v: wrote slot %d past the window", what, n, eta, i-n+1)
					}
				}
			}
			k.pairs(x, eta, 0, backM[:n:n], backI[:n:n])
			check("pairs")
			k.compact(x, idx, eta, backM[:n:n], backI[:n:n])
			check("compact")
		}
		// The top-k gather's window is what it keeps and gatherSlack more:
		// measured on a wide one, then handed exactly.
		for _, floor := range []uint64{0, math.Float64bits(0.5), 1 << 63} {
			x := specials(n, int64(n))
			wide := n + gatherSlack
			kept := k.atLeast(x, floor, 0, make([]float64, wide), make([]int32, wide))
			w := kept + gatherSlack
			backM, backI := make([]float64, w+pad), make([]int32, w+pad)
			for i := range backM {
				backM[i], backI[i] = sentinel, -7
			}
			k.atLeast(x, floor, 0, backM[:w:w], backI[:w:w])
			for i := w; i < w+pad; i++ {
				if math.Float64bits(backM[i]) != math.Float64bits(sentinel) || backI[i] != -7 {
					t.Fatalf("atLeast n=%d floor=%#x: kept %d, wrote slot %d past the window", n, floor, kept, i-w+1)
				}
			}
		}
	}
}
