package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// randomParts draws n sparse vectors of dimension dim, each holding about
// a fill share of the indices; values include -0 and, at indices several
// parts share, exactly cancelling pairs.
func randomParts(rng *rand.Rand, n, dim int, fill float64) []tensor.Sparse {
	parts := make([]tensor.Sparse, n)
	for p := range parts {
		parts[p].Dim = dim
		for i := 0; i < dim; i++ {
			if rng.Float64() >= fill {
				continue
			}
			v := rng.NormFloat64()
			switch rng.Intn(6) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = 1.5 // cancels against case 2 in another part
			case 2:
				v = -1.5
			}
			parts[p].Append(int32(i), v)
		}
	}
	return parts
}

// scatterMean is how a receiver uses the merged vector: zero, then
// assign.
func scatterMean(dim int, parts []tensor.Sparse) (tensor.Sparse, []float64) {
	var merged tensor.Sparse
	tensor.MeanSparseInto(&merged, parts)
	out := make([]float64, dim)
	for i, j := range merged.Idx {
		out[j] = merged.Vals[i]
	}
	return merged, out
}

// inProcessMean is the oracle: dist.InProcess over the same contributions.
func inProcessMean(t *testing.T, dim int, parts []tensor.Sparse) []float64 {
	t.Helper()
	ins := make([]dist.ExchangeInput, len(parts))
	for p := range parts {
		ins[p] = dist.ExchangeInput{Worker: p, Sparse: &parts[p]}
	}
	agg := make([]float64, dim)
	if err := (dist.InProcess{}).Exchange(0, ins, agg); err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestMeanSparseIntoMatchesInProcess holds the origin-order merge
// bit-equal to the dense reduction for disjoint, overlapping and
// identical supports.
func TestMeanSparseIntoMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const dim = 600
	for _, n := range []int{1, 2, 3, 8, 70} { // 70: past the stack cursors
		for _, fill := range []float64{0, 0.01, 0.2, 1} {
			parts := randomParts(rng, n, dim, fill)
			if fill == 0.2 {
				// Disjoint supports: part p keeps the indices = p mod n.
				for p := range parts {
					kept := tensor.Sparse{Dim: dim}
					for i, j := range parts[p].Idx {
						if int(j)%n == p {
							kept.Append(j, parts[p].Vals[i])
						}
					}
					parts[p] = kept
				}
			}
			merged, got := scatterMean(dim, parts)
			if err := merged.Validate(); err != nil {
				t.Fatalf("n=%d fill=%v: merged vector invalid: %v", n, fill, err)
			}
			want := inProcessMean(t, dim, parts)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d fill=%v: [%d] = %v (%#x), in-process %v (%#x)", n, fill, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			// Nothing the dense path leaves at zero is stored (no sum
			// here is small enough for its mean to underflow).
			for i, j := range merged.Idx {
				if merged.Vals[i] == 0 {
					t.Fatalf("n=%d fill=%v: index %d stored with a zero value", n, fill, j)
				}
			}
		}
	}
}

// TestMeanSparseIntoZeros pins the zero handling: a lone -0 lands as +0
// (the dense path adds it to +0) and is dropped; a cancelling pair is
// dropped; neither leaves an entry for a parameter server to ship.
func TestMeanSparseIntoZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	parts := []tensor.Sparse{
		{Dim: 8, Idx: []int32{1, 3, 5}, Vals: []float64{negZero, 2.5, 4}},
		{Dim: 8, Idx: []int32{3, 5, 7}, Vals: []float64{-2.5, 4, negZero}},
	}
	merged, out := scatterMean(8, parts)
	if len(merged.Idx) != 1 || merged.Idx[0] != 5 || merged.Vals[0] != 4 {
		t.Fatalf("merged = %v %v, want only (5, 4)", merged.Idx, merged.Vals)
	}
	want := inProcessMean(t, 8, parts)
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("[%d] = %#x, in-process %#x", i, math.Float64bits(out[i]), math.Float64bits(want[i]))
		}
	}
	for _, i := range []int{1, 3, 7} {
		if math.Float64bits(out[i]) != 0 {
			t.Fatalf("[%d] = %#x, want +0", i, math.Float64bits(out[i]))
		}
	}

	var empty tensor.Sparse
	tensor.MeanSparseInto(&empty, nil)
	if empty.Dim != 0 || empty.NNZ() != 0 {
		t.Fatalf("mean of no parts = dim %d nnz %d", empty.Dim, empty.NNZ())
	}
}

func TestMeanSparseIntoDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var dst tensor.Sparse
	tensor.MeanSparseInto(&dst, []tensor.Sparse{{Dim: 4}, {Dim: 5}})
}

func TestMeanSparseIntoSteadyStateAllocs(t *testing.T) {
	parts := randomParts(rand.New(rand.NewSource(3)), 8, 4096, 0.05)
	var dst tensor.Sparse
	tensor.MeanSparseInto(&dst, parts)
	if n := testing.AllocsPerRun(20, func() { tensor.MeanSparseInto(&dst, parts) }); n != 0 {
		t.Fatalf("steady-state merge allocates %v times per run", n)
	}
}

// BenchmarkMeanSparseInto is the reduce of one all-gather round at the
// grad-sidcoe-d2m shape: 2 origins, ~3.6k selected of d = 2^21, against
// the dense Zero + AddTo + Scale it replaced (which a receiver still
// follows with a Zero + scatter of its own).
func BenchmarkMeanSparseInto(b *testing.B) {
	const dim = 1 << 21
	for _, n := range []int{2, 8} {
		parts := randomParts(rand.New(rand.NewSource(5)), n, dim, 3600.0/dim)
		b.Run(fmt.Sprintf("merge-n%d", n), func(b *testing.B) {
			var dst tensor.Sparse
			tensor.MeanSparseInto(&dst, parts) // size dst: steady state is what is measured
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MeanSparseInto(&dst, parts)
			}
		})
		b.Run(fmt.Sprintf("dense-n%d", n), func(b *testing.B) {
			acc := make([]float64, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Zero(acc)
				for p := range parts {
					parts[p].AddTo(acc)
				}
				tensor.Scale(1/float64(n), acc)
			}
		})
	}
}
