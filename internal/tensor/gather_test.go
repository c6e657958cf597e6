package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naivePairsAbove is the branchy append loop the blocked gather replaced,
// kept as the reference the kernel is held bit-equal to.
func naivePairsAbove(x []float64, eta float64, base int32, mags []float64, idx []int32) ([]float64, []int32) {
	for i, xi := range x {
		if a := math.Abs(xi); a > eta {
			mags = append(mags, a)
			idx = append(idx, base+int32(i))
		}
	}
	return mags, idx
}

// naiveExcess is the definition of the moments the gathers carry: per
// gatherBlock of the input, the magnitudes a > eta in order, a-eta and its
// square summed in four interleaved lanes (the j-th kept element in lane
// j%4, a tail of fewer than four in lane 0) that combine as
// (l0+l1)+(l2+l3); the block sums added in block order.
func naiveExcess(mags []float64, eta float64) (ex Excess) {
	for lo := 0; lo < len(mags); lo += gatherBlock {
		var kept []float64
		for _, a := range mags[lo:min(lo+gatherBlock, len(mags))] {
			if a = math.Abs(a); a > eta {
				kept = append(kept, a)
			}
		}
		var s, q [4]float64
		for j, a := range kept {
			lane := j % 4
			if j >= len(kept)/4*4 {
				lane = 0
			}
			s[lane] += a - eta
			q[lane] += (a - eta) * (a - eta)
		}
		ex.Sum += (s[0] + s[1]) + (s[2] + s[3])
		ex.SumSq += (q[0] + q[1]) + (q[2] + q[3])
	}
	return ex
}

func sameExcess(t *testing.T, what string, got, want Excess) {
	t.Helper()
	sameBits(t, what+" excess moments", []float64{got.Sum, got.SumSq}, []float64{want.Sum, want.SumSq})
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

func sameIdx(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d indices, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: idx[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// gatherPath is one set of gather kernels under the name its subtests and
// benchmark rows carry; has reports whether this machine can run it.
type gatherPath struct {
	name string
	k    *gatherKernels
	has  bool
}

// onEachGatherPath calls run once per set of gather kernels this machine
// can run — "portable" (the Go loops), then each of vectorGathers the CPU
// has — with the exceedance path pointed at that set, as init would point
// it, and restores init's choice after.
func onEachGatherPath(run func(path string)) {
	chosen := gather
	defer func() { gather = chosen }()
	for _, p := range append([]gatherPath{{"portable", &goGather, true}}, vectorGathers...) {
		if p.has {
			gather = p.k
			run(p.name)
		}
	}
}

// TestPairsAboveMatchesNaive holds the blocked store-then-advance gather
// bit-equal to the naive loop, magnitudes, indices and excess moments:
// block-boundary lengths, degenerate thresholds, special values, non-empty
// and exact-capacity lists, a non-zero base — and CompactPairsAbove,
// which leaves its source intact, against a second naive gather at a
// higher threshold. It runs on each kernel path.
func TestPairsAboveMatchesNaive(t *testing.T) {
	onEachGatherPath(func(path string) { t.Run(path, testPairsAboveMatchesNaive) })
}

func testPairsAboveMatchesNaive(t *testing.T) {
	lengths := []int{0, 1, gatherBlock - 1, gatherBlock, gatherBlock + 1, 3*gatherBlock + 17}
	if !testing.Short() {
		lengths = append(lengths, 1<<21)
	}
	for _, d := range lengths {
		inputs := map[string][]float64{
			"specials": specials(d, int64(d)+1),
			"ones":     make([]float64, d),      // all-above at eta < 1, none-above at eta >= 1
			"finite":   gaussMix(d, int64(d)+2), // no NaN or Inf: the moments are numbers, so their order shows
		}
		for i := range inputs["ones"] {
			inputs["ones"][i] = -1
		}
		for name, x := range inputs {
			for _, eta := range []float64{0, math.NaN(), math.Inf(1), 0.75, 0.5, 1, -1} {
				what := fmt.Sprintf("%s d=%d eta=%v", name, d, eta)
				wantM, wantI := naivePairsAbove(x, eta, 0, nil, nil)
				wantEx := naiveExcess(x, eta)
				gotM, gotI, gotEx := PairsAboveThreshold(x, eta, 0, nil, nil)
				sameBits(t, what, gotM, wantM)
				sameIdx(t, what, gotI, wantI)
				sameExcess(t, what, gotEx, wantEx)

				preM, preI := []float64{7, -8, math.NaN()}, []int32{5, 4, 3}
				wantM, wantI = naivePairsAbove(x, eta, 0, append([]float64(nil), preM...), append([]int32(nil), preI...))
				gotM, gotI, gotEx = PairsAboveThreshold(x, eta, 0, append([]float64(nil), preM...), append([]int32(nil), preI...))
				sameBits(t, what+" lists non-empty", gotM, wantM)
				sameIdx(t, what+" lists non-empty", gotI, wantI)
				sameExcess(t, what+" lists non-empty", gotEx, wantEx) // of what was appended only

				// Exact-capacity lists: every block must grow them.
				gotM, gotI, _ = PairsAboveThreshold(x, eta, 0, preM[:3:3], preI[:3:3])
				sameBits(t, what+" lists full", gotM, wantM)
				sameIdx(t, what+" lists full", gotI, wantI)

				wantM, wantI = naivePairsAbove(x, eta, 11, nil, nil)
				gotM, gotI, _ = PairsAboveThreshold(x, eta, 11, nil, nil)
				sameBits(t, what+" base 11", gotM, wantM)
				sameIdx(t, what+" base 11", gotI, wantI)

				// Compaction of that list at each threshold of the grid, into
				// empty and into exact-capacity storage; the source survives.
				for _, eta2 := range []float64{0, math.NaN(), math.Inf(1), 0.75, 1, 1.5} {
					what := fmt.Sprintf("%s compact eta2=%v", what, eta2)
					keepM, keepI := append([]float64(nil), preM...), append([]int32(nil), preI...)
					for i, a := range wantM {
						if a > eta2 {
							keepM, keepI = append(keepM, a), append(keepI, wantI[i])
						}
					}
					srcM, srcI := append([]float64(nil), wantM...), append([]int32(nil), wantI...)
					cM, cI, cEx := CompactPairsAbove(nil, nil, srcM, srcI, eta2)
					sameBits(t, what, cM, keepM[3:])
					sameIdx(t, what, cI, keepI[3:])
					sameExcess(t, what, cEx, naiveExcess(wantM, eta2))
					cM, cI, _ = CompactPairsAbove(preM[:3:3], preI[:3:3], srcM, srcI, eta2)
					sameBits(t, what+" lists full", cM, keepM)
					sameIdx(t, what+" lists full", cI, keepI)
					sameBits(t, what+" source", srcM, wantM)
					sameIdx(t, what+" source", srcI, wantI)
				}
			}
		}
	}
}

// TestPairsAboveSteadyStateAllocs pins the reuse contract: once the
// lists have room for the exceedances plus one block of headroom, neither
// the gather nor the compaction allocates, on either kernel path.
func TestPairsAboveSteadyStateAllocs(t *testing.T) {
	onEachGatherPath(func(path string) { t.Run(path, testPairsAboveSteadyStateAllocs) })
}

func testPairsAboveSteadyStateAllocs(t *testing.T) {
	x := specials(1<<16, 9)
	mags, idx, _ := PairsAboveThreshold(x, 0.5, 0, nil, nil)
	var mags2 []float64
	var idx2 []int32
	if n := testing.AllocsPerRun(20, func() {
		mags, idx, _ = PairsAboveThreshold(x, 0.5, 0, mags[:0], idx[:0])
		mags2, idx2, _ = CompactPairsAbove(mags2[:0], idx2[:0], mags, idx, 0.75)
	}); n != 0 {
		t.Fatalf("steady-state gather + compaction allocates %v times per run", n)
	}
}

var (
	sinkVals []float64
	sinkIdx  []int32
)

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

// valuesOnlyAbove is the loop body of the values-only gather the pair
// gather replaced, kept as the benchmark's reference: the difference is
// what carrying the indices costs.
func valuesOnlyAbove(x []float64, eta float64, dst []float64) []float64 {
	dst = dst[:len(x)]
	m := 0
	for _, xi := range x {
		a := math.Abs(xi)
		dst[m] = a
		m += b2i(a > eta)
	}
	return dst[:m]
}

// BenchmarkPairsAbove is the stage-1 exceedance gather at d = 2^21 and
// the ~30% selectivity of SIDCo's first stage (delta1 = 0.25 plus the
// fit's over-selection), where the comparison is a coin flip to a branch
// predictor: on each kernel path, the index- and moment-carrying gather,
// two such gathers of two vectors at once (pairs-x2: what the two workers
// of a step do, sharing the memory bus) and the compaction of the list to
// the next stage's ~25% of it; then the values-only Go body the gather
// replaced and the naive branchy loop.
// Each row counts the bytes it moves: what it reads (8 an element of the
// vector, 12 a pair of a list) and the pairs it writes (12 each, 8 for
// the values-only list).
func BenchmarkPairsAbove(b *testing.B) {
	g := gaussMix(1<<21, 3)
	eta := quantileEta(g, 0.30)
	eta2 := quantileEta(g, 0.075)
	listM, listI, _ := PairsAboveThreshold(g, eta, 0, nil, nil)
	kept2, _, _ := CompactPairsAbove(nil, nil, listM, listI, eta2)
	mags, idx := make([]float64, 0, len(g)), make([]int32, 0, len(g))
	g2 := gaussMix(1<<21, 4)
	eta2nd := quantileEta(g2, 0.30)
	listM2, _, _ := PairsAboveThreshold(g2, eta2nd, 0, nil, nil)
	mags2, idx2 := make([]float64, 0, len(g2)), make([]int32, 0, len(g2))
	run := func(name string, bytes int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	onEachGatherPath(func(path string) {
		run(path+"/pairs", 8*len(g)+12*len(listM), func() { sinkVals, sinkIdx, _ = PairsAboveThreshold(g, eta, 0, mags[:0], idx[:0]) })
		run(path+"/pairs-x2", 8*len(g)+12*len(listM)+8*len(g2)+12*len(listM2), func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				PairsAboveThreshold(g2, eta2nd, 0, mags2[:0], idx2[:0])
			}()
			sinkVals, sinkIdx, _ = PairsAboveThreshold(g, eta, 0, mags[:0], idx[:0])
			wg.Wait()
		})
		run(path+"/compact", 12*len(listM)+12*len(kept2), func() { sinkVals, sinkIdx, _ = CompactPairsAbove(mags[:0], idx[:0], listM, listI, eta2) })
	})
	run("values-only", 8*len(g)+8*len(listM), func() { sinkVals = valuesOnlyAbove(g, eta, mags[:0]) })
	run("naive", 8*len(g)+12*len(listM), func() { sinkVals, sinkIdx = naivePairsAbove(g, eta, 0, mags[:0], idx[:0]) })
}
