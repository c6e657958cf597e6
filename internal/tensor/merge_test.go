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

// meanSparseScan is the N-way head scan MeanSparseInto ran before the
// fold, kept as the oracle the fold is held to: per output index, one pass
// over every part's head, adding the values of the parts that hold it in
// part order onto 0, keeping the sum times 1/N when it is not zero.
func meanSparseScan(parts []tensor.Sparse) tensor.Sparse {
	out := tensor.Sparse{Dim: parts[0].Dim}
	pos := make([]int, len(parts))
	inv := 1 / float64(len(parts))
	for {
		next := math.MaxInt
		for p := range parts {
			if pos[p] < len(parts[p].Idx) {
				next = min(next, int(parts[p].Idx[pos[p]]))
			}
		}
		if next == math.MaxInt {
			return out
		}
		sum := 0.0
		for p := range parts {
			if pos[p] < len(parts[p].Idx) && int(parts[p].Idx[pos[p]]) == next {
				sum += parts[p].Vals[pos[p]]
				pos[p]++
			}
		}
		if sum != 0 {
			out.Append(int32(next), sum*inv)
		}
	}
}

// mergeSalt are the values a merge can get wrong: zeros of both signs,
// a pair that cancels, infinities of both signs (which cancel to NaN), a
// NaN, a subnormal.
var mergeSalt = []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}

// TestMeanSparseIntoMatchesScan holds the fold to meanSparseScan at N ∈
// {1, 2, 3, 8, 70} (two and more merges, so both halves of dst's storage
// end a fold's odd and even merges): the merged indices exactly and the
// values by nanOrSameBits, on disjoint, overlapping, identical and empty
// supports and on overlapping ones with the middle part empty, with half
// the values drawn from mergeSalt. Each case merges into the dst the case
// before it left, storage and all.
func TestMeanSparseIntoMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const dim = 400
	var dst tensor.Sparse
	for _, n := range []int{1, 2, 3, 8, 70} {
		for _, support := range []string{"disjoint", "overlapping", "identical", "empty", "middle-empty"} {
			for trial := range 4 {
				shared := make([]bool, dim)
				for i := range shared {
					shared[i] = rng.Intn(3) == 0
				}
				parts := make([]tensor.Sparse, n)
				for p := range parts {
					parts[p].Dim = dim
					for i := range dim {
						var holds bool
						switch support {
						case "disjoint":
							holds = i%n == p && rng.Intn(2) == 0
						case "overlapping", "middle-empty":
							holds = rng.Intn(3) == 0 && !(support == "middle-empty" && p == n/2)
						case "identical":
							holds = shared[i]
						}
						if !holds {
							continue
						}
						v := rng.NormFloat64()
						if rng.Intn(2) == 0 {
							v = mergeSalt[rng.Intn(len(mergeSalt))]
						}
						parts[p].Append(int32(i), v)
					}
				}
				what := fmt.Sprintf("n=%d %s trial %d", n, support, trial)
				want := meanSparseScan(parts)
				tensor.MeanSparseInto(&dst, parts)
				if dst.Dim != dim || len(dst.Idx) != len(want.Idx) || len(dst.Vals) != len(want.Idx) {
					t.Fatalf("%s: dim %d, %d indices and %d values; the scan has %d pairs", what, dst.Dim, len(dst.Idx), len(dst.Vals), len(want.Idx))
				}
				for i, j := range want.Idx {
					if dst.Idx[i] != j || !tensor.NanOrSameBits(dst.Vals[i], want.Vals[i]) {
						t.Fatalf("%s: pair %d = (%d, %v %#x), the scan (%d, %v %#x)", what, i,
							dst.Idx[i], dst.Vals[i], math.Float64bits(dst.Vals[i]), j, want.Vals[i], math.Float64bits(want.Vals[i]))
					}
				}
			}
		}
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
// follows with a Zero + scatter of its own), and the fold at 8 origins.
// Two more rows are the merges of the other sparse workloads:
// train-sidco-tcp's (2 × ~18.5k of d = 1 847 306) and the parameter
// server's in grad-topk-bitmap-ps (2 × ~27k of d = 269 467).
func BenchmarkMeanSparseInto(b *testing.B) {
	merge := func(b *testing.B, parts []tensor.Sparse) {
		var dst tensor.Sparse
		tensor.MeanSparseInto(&dst, parts) // size dst: steady state is what is measured
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MeanSparseInto(&dst, parts)
		}
	}
	const dim = 1 << 21
	for _, n := range []int{2, 8} {
		parts := randomParts(rand.New(rand.NewSource(5)), n, dim, 3600.0/dim)
		b.Run(fmt.Sprintf("merge-n%d", n), func(b *testing.B) { merge(b, parts) })
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
	for _, w := range []struct {
		name     string
		dim, nnz int
	}{{"train-sidco-tcp", 1847306, 18500}, {"grad-topk-bitmap-ps", 269467, 27000}} {
		parts := randomParts(rand.New(rand.NewSource(5)), 2, w.dim, float64(w.nnz)/float64(w.dim))
		b.Run("merge-n2-"+w.name, func(b *testing.B) { merge(b, parts) })
	}
}
