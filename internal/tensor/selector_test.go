package tensor

import (
	"math"
	"math/rand"
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
			sel.TopKInto(dst, g, k)
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

// TestSelectorTieHeavyMatchesSortOracle holds TopKInto and AbsKth on
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
				sel.TopKInto(got, g, k)
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
		sel.TopKInto(dst, g, k)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst.Reset(len(g))
		sel.TopKInto(dst, g, k)
	})
	if allocs > 0 {
		t.Errorf("TopKInto allocates %v objects/op in steady state, want 0", allocs)
	}
}
