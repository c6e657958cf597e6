package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// heavyTailed builds a gradient-like vector with repeated magnitudes
// (tie pressure), exact zeros and a heavy tail — the inputs where a
// parallel selection could plausibly diverge from the serial one.
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

// TestSelectorParallelBitIdentity checks that TopKInto and AbsKth are
// bit-identical across parallelism 1, 2, 3 and 8 on tie-heavy inputs
// larger than the radix threshold.
func TestSelectorParallelBitIdentity(t *testing.T) {
	for _, d := range []int{1 << 14, 1<<16 + 917} {
		g := heavyTailed(d, int64(d))
		for _, k := range []int{1, 7, d / 100, d / 3} {
			var ref Selector
			want := &Sparse{}
			want.Reset(d)
			ref.TopKInto(want, g, k)
			wantKth := ref.AbsKth(g, k)
			for _, p := range []int{2, 3, 8} {
				var sel Selector
				sel.SetParallelism(p)
				got := &Sparse{}
				got.Reset(d)
				sel.TopKInto(got, g, k)
				if got.NNZ() != want.NNZ() {
					t.Fatalf("d=%d k=%d p=%d: nnz %d, serial %d", d, k, p, got.NNZ(), want.NNZ())
				}
				for i := range want.Idx {
					if got.Idx[i] != want.Idx[i] ||
						math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
						t.Fatalf("d=%d k=%d p=%d: element %d = (%d,%v), serial (%d,%v)",
							d, k, p, i, got.Idx[i], got.Vals[i], want.Idx[i], want.Vals[i])
					}
				}
				if kth := sel.AbsKth(g, k); math.Float64bits(kth) != math.Float64bits(wantKth) {
					t.Fatalf("d=%d k=%d p=%d: AbsKth %v, serial %v", d, k, p, kth, wantKth)
				}
				// Second use of the same Selector must still match (stale
				// per-worker scratch would show up here).
				got.Reset(d)
				sel.TopKInto(got, g, k)
				if got.NNZ() != want.NNZ() {
					t.Fatalf("d=%d k=%d p=%d: second pass nnz %d, serial %d", d, k, p, got.NNZ(), want.NNZ())
				}
			}
		}
	}
}

// TestParThresholdOpsBitIdentity checks the Par count/filter/gather
// passes against their serial counterparts at several parallelism
// levels.
func TestParThresholdOpsBitIdentity(t *testing.T) {
	d := 1<<15 + 331
	g := heavyTailed(d, 5)
	for _, eta := range []float64{0, 0.25, 0.5, 3.7} {
		wantN := CountAboveThreshold(g, eta)
		wantIdx, wantVals := FilterAboveThreshold(g, eta, nil, nil)
		wantAbove, wantAboveIdx, wantEx := PairsAboveThreshold(g, eta, 0, nil, nil)
		for _, p := range []int{2, 5, 8} {
			pp := &Par{P: p}
			if n := pp.CountAbove(g, eta); n != wantN {
				t.Fatalf("eta=%v p=%d: count %d, serial %d", eta, p, n, wantN)
			}
			idx, vals := pp.FilterAbove(g, eta, nil, nil)
			if len(idx) != len(wantIdx) {
				t.Fatalf("eta=%v p=%d: filter len %d, serial %d", eta, p, len(idx), len(wantIdx))
			}
			for i := range idx {
				if idx[i] != wantIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("eta=%v p=%d: filter[%d] = (%d,%v), serial (%d,%v)",
						eta, p, i, idx[i], vals[i], wantIdx[i], wantVals[i])
				}
			}
			above, aboveIdx, ex := pp.PairsAbove(g, eta, nil, nil)
			if math.Float64bits(ex.Sum) != math.Float64bits(wantEx.Sum) || math.Float64bits(ex.SumSq) != math.Float64bits(wantEx.SumSq) {
				t.Fatalf("eta=%v p=%d: excess moments %v, serial %v", eta, p, ex, wantEx)
			}
			if len(above) != len(wantAbove) || len(aboveIdx) != len(wantAboveIdx) {
				t.Fatalf("eta=%v p=%d: gather len %d/%d, serial %d/%d", eta, p, len(above), len(aboveIdx), len(wantAbove), len(wantAboveIdx))
			}
			for i := range above {
				if math.Float64bits(above[i]) != math.Float64bits(wantAbove[i]) || aboveIdx[i] != wantAboveIdx[i] {
					t.Fatalf("eta=%v p=%d: gather[%d] = (%d,%v), serial (%d,%v)", eta, p, i, aboveIdx[i], above[i], wantAboveIdx[i], wantAbove[i])
				}
			}
		}
	}
}
