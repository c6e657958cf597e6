package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSelectorMatchesTopKSelect cross-checks the scratch-reusing
// Selector against the allocating reference on a mix of sizes (spanning
// the quickselect/radix crossover), k values, and tie-heavy inputs —
// including reuse of one Selector across different distributions, which
// is exactly how per-worker compressors drive it.
func TestSelectorMatchesTopKSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sel Selector
	dims := []int{1, 5, 100, 1 << 10, 1 << 14, 1<<14 + 3, 40000}
	for trial := 0; trial < 20; trial++ {
		d := dims[trial%len(dims)]
		g := make([]float64, d)
		switch trial % 3 {
		case 0:
			for i := range g {
				g[i] = rng.NormFloat64()
			}
		case 1: // heavy ties: few distinct magnitudes
			for i := range g {
				g[i] = float64(rng.Intn(4)) * (1 - 2*float64(rng.Intn(2)))
			}
		case 2: // mostly zero
			for i := range g {
				if rng.Intn(10) == 0 {
					g[i] = rng.ExpFloat64()
				}
			}
		}
		for _, k := range []int{1, 2, d / 7, d - 1, d, d + 5} {
			if k < 1 {
				continue
			}
			wantIdx, wantVals := TopKSelect(g, k)
			dst := &Sparse{}
			dst.Reset(d)
			sel.TopKAccumulateInto(dst, g, nil, k)
			if len(dst.Idx) != len(wantIdx) {
				t.Fatalf("d=%d k=%d: got %d elements, want %d", d, k, len(dst.Idx), len(wantIdx))
			}
			for i := range wantIdx {
				if dst.Idx[i] != wantIdx[i] || math.Float64bits(dst.Vals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("d=%d k=%d element %d: got (%d,%v), want (%d,%v)",
						d, k, i, dst.Idx[i], dst.Vals[i], wantIdx[i], wantVals[i])
				}
			}
		}
	}
}

// heavyTailed builds a gradient-like vector with repeated magnitudes
// (tie pressure), exact zeros and a heavy tail.
func heavyTailed(d int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, d)
	for i := range g {
		switch rng.Intn(8) {
		case 0:
			g[i] = 0
		case 1:
			g[i] = 0.5 // many exact ties
		case 2:
			g[i] = -0.5
		default:
			g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*3)
		}
	}
	return g
}

// TestSelectorTieHeavyMatchesSortOracle holds TopKAccumulateInto and AbsKth on
// tie-heavy inputs above the radix threshold to the sort-based oracle,
// element for element: the cutoff ties go to the lowest indices, exactly
// as a stable sort by magnitude keeps them. Each Selector is used twice,
// so stale scratch from the first pass would show in the second.
func TestSelectorTieHeavyMatchesSortOracle(t *testing.T) {
	for _, d := range []int{1 << 14, 1<<16 + 917} {
		g := heavyTailed(d, int64(d))
		for _, k := range []int{1, 7, d / 100, d / 3} {
			wantIdx, wantVals := TopKSort(g, k)
			var sel Selector
			for pass := 0; pass < 2; pass++ {
				got := &Sparse{}
				got.Reset(d)
				sel.TopKAccumulateInto(got, g, nil, k)
				if got.NNZ() != len(wantIdx) {
					t.Fatalf("d=%d k=%d pass %d: nnz %d, oracle %d", d, k, pass, got.NNZ(), len(wantIdx))
				}
				for i := range wantIdx {
					if got.Idx[i] != wantIdx[i] || math.Float64bits(got.Vals[i]) != math.Float64bits(wantVals[i]) {
						t.Fatalf("d=%d k=%d pass %d: element %d = (%d,%v), oracle (%d,%v)",
							d, k, pass, i, got.Idx[i], got.Vals[i], wantIdx[i], wantVals[i])
					}
				}
				kth := math.Inf(1)
				for _, v := range wantVals {
					kth = math.Min(kth, math.Abs(v))
				}
				if got := sel.AbsKth(g, k); got != kth {
					t.Fatalf("d=%d k=%d pass %d: AbsKth %v, oracle %v", d, k, pass, got, kth)
				}
			}
		}
	}
}

// TestSelectorAbsKthMatchesReference checks the reusable radix select
// against the package-level function across the size crossover.
func TestSelectorAbsKthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sel Selector
	for _, d := range []int{3, 1000, 1 << 14, 50000} {
		g := make([]float64, d)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		for _, k := range []int{1, d / 3, d} {
			if got, want := sel.AbsKth(g, k), RadixSelectAbsKth(g, k); got != want {
				t.Fatalf("d=%d k=%d: %v != %v", d, k, got, want)
			}
		}
	}
}

// TestSelectorZeroAllocSteadyState guards the whole point of the type.
func TestSelectorZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := make([]float64, 1<<15)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	var sel Selector
	dst := &Sparse{}
	k := 500
	for i := 0; i < 10; i++ {
		dst.Reset(len(g))
		sel.TopKAccumulateInto(dst, g, nil, k)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst.Reset(len(g))
		sel.TopKAccumulateInto(dst, g, nil, k)
	})
	if allocs > 0 {
		t.Errorf("TopKAccumulateInto allocates %v objects/op in steady state, want 0", allocs)
	}
}

// topKInputs are the vectors TestTopKAccumulateMatchesSort selects from,
// by name: the lengths around the quickselect/radix crossover and every
// short one, each as Gaussian noise salted with ±0, subnormals, ±Inf and
// NaN, and, at the lengths that have room, all-equal vectors, mostly-zero
// ones whose cutoff is 0, and runs of one tied magnitude laid across
// groups of eight, gather-block ends and (with the ks of the test) the
// k-th slot.
func topKInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(5))
	subnormal := math.Float64frombits(0x000f_0000_0000_0001)
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), subnormal, -subnormal}
	in := map[string][]float64{}
	var lengths []int
	for n := range 18 {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 4097, radixMin-1, radixMin, radixMin+1) {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				x[i] = salt[rng.Intn(len(salt))]
			}
		}
		in[fmt.Sprintf("salted n=%d", n)] = x
		if n < 8 {
			continue
		}
		in[fmt.Sprintf("all-equal n=%d", n)] = slices.Repeat([]float64{-0.75}, n)
		sparse := make([]float64, n)
		for i := range sparse {
			if rng.Intn(16) == 0 {
				sparse[i] = rng.NormFloat64()
			}
		}
		in[fmt.Sprintf("mostly-zero n=%d", n)] = sparse
		ties := make([]float64, n)
		for i := range ties {
			ties[i] = rng.NormFloat64() * 0.1
		}
		for _, at := range []int{5, n / 2, n - 9, gatherBlock - 3} {
			for i := at; i >= 0 && i < min(at+11, n); i++ {
				ties[i] = 0.75 * float64(1-2*(i%2))
			}
		}
		ties[n-1] = math.Inf(-1)
		in[fmt.Sprintf("tie-runs n=%d", n)] = ties
	}
	return in
}

// TestTopKAccumulateMatchesSort holds TopKAccumulateInto to the sort
// oracle, index for index and value by bit pattern, on every gather path
// this CPU has: without an add, and with one, where acc must also end as
// Add(add, acc) leaves it (a NaN meets any NaN). The ks put the cutoff on
// the maximum, on the tie runs, on the zeros and at every count near d.
// Each Selector selects twice, so stale scratch from the first call
// shows in the second.
func TestTopKAccumulateMatchesSort(t *testing.T) {
	onEachGatherPath(func(path string) { t.Run(path, testTopKAccumulateMatchesSort) })
}

func testTopKAccumulateMatchesSort(t *testing.T) {
	for name, x := range topKInputs() {
		n := len(x)
		ks := []int{-1, 0, 1, 2, 3, 8, 9, n / 16, n / 3, n / 2, n - 2, n - 1, n, n + 1}
		for _, k := range ks {
			for _, fused := range []bool{false, true} {
				what := fmt.Sprintf("%s k=%d fused=%v", name, k, fused)
				var add []float64
				src := x
				if fused {
					// Halves, so the sum keeps the input's ties.
					src = Clone(x)
					Scale(0.5, src)
					add = src
				}
				var wantIdx []int32
				var sel Selector
				for pass := range 2 {
					acc := Clone(src)
					dst := &Sparse{}
					dst.Reset(n)
					sel.TopKAccumulateInto(dst, acc, add, k)
					if pass == 0 {
						want := Clone(src)
						if fused {
							Add(add, want)
						}
						for i := range want {
							if !nanOrSameBits(acc[i], want[i]) {
								t.Fatalf("%s: acc[%d] = %v, want %v", what, i, acc[i], want[i])
							}
						}
						wantIdx, _ = TopKSort(acc, k)
					}
					sameIdx(t, fmt.Sprintf("%s pass %d", what, pass), dst.Idx, wantIdx)
					for i, j := range wantIdx {
						if math.Float64bits(dst.Vals[i]) != math.Float64bits(acc[j]) {
							t.Fatalf("%s pass %d: value %d = %v, acc[%d] = %v", what, pass, i, dst.Vals[i], j, acc[j])
						}
					}
				}
			}
		}
	}
}

// BenchmarkTopKAccumulate is the selection of error feedback over Top-k
// at grad-topk-bitmap-ps's shape, d = 269 467 and k = d/10, on
// heavy-tailed inputs without ties, on each gather path this CPU has: the
// add rides the histogram pass, and the selection is subtracted from acc
// after, as ErrorFeedback does. The bytes are the two passes' traffic, 32
// an element.
func BenchmarkTopKAccumulate(b *testing.B) {
	const d = 269467
	rng := rand.New(rand.NewSource(3))
	g, add := make([]float64, d), make([]float64, d)
	for i := range g {
		g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		add[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	onEachGatherPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			acc := Clone(g)
			var sel Selector
			var dst Sparse
			step := func() {
				dst.Reset(d)
				sel.TopKAccumulateInto(&dst, acc, add, d/10)
				for i, j := range dst.Idx {
					acc[j] -= dst.Vals[i]
				}
			}
			for range 8 {
				step()
			}
			b.SetBytes(32 * d)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	})
}
