package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// allocGradient is a deterministic heavy-tailed-ish gradient that gives
// threshold estimators a sane fit.
func allocGradient(dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, dim)
	for i := range g {
		g[i] = rng.NormFloat64() * rng.ExpFloat64()
	}
	return g
}

// TestCompressIntoSteadyStateAllocs is the allocation-regression guard of
// the streaming pipeline: after warm-up, CompressInto must not allocate
// for any registry compressor (plus randomk and the EC wrapper). A
// regression here silently reintroduces the per-step garbage the streaming
// pipeline was built to remove, so the budget is zero, not "small".
func TestCompressIntoSteadyStateAllocs(t *testing.T) {
	const dim = 1 << 15
	const delta = 0.01
	g := allocGradient(dim, 42)
	names := append(append([]string{}, CompressorNames...), "randomk", "none")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			c := MustCompressor(name, 7)
			dst := &tensor.Sparse{}
			for i := 0; i < 50; i++ { // warm every scratch buffer
				if err := c.CompressInto(dst, g, delta); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := c.CompressInto(dst, g, delta); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("CompressInto allocates %v objects/op in steady state, want 0", allocs)
			}
		})
		t.Run(name+"+ec", func(t *testing.T) {
			c := compress.NewErrorFeedback(MustCompressor(name, 7))
			// The sidco-* and topk rows of this guard are the fused arm's:
			// the add rides their first sweep through AccumulateCompressor.
			if _, fused := c.Inner.(compress.AccumulateCompressor); fused != (strings.HasPrefix(name, "sidco-") || name == "topk") {
				t.Fatalf("EC(%s) takes the fused arm: %v", name, fused)
			}
			dst := &tensor.Sparse{}
			for i := 0; i < 50; i++ {
				if err := c.CompressInto(dst, g, delta); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := c.CompressInto(dst, g, delta); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("EC CompressInto allocates %v objects/op in steady state, want 0", allocs)
			}
		})
	}
}

// TestEncodeToDecodeIntoSteadyStateAllocs guards the wire path: encoding
// into a recycled buffer and decoding into recycled sparse storage must
// be allocation-free for every format.
func TestEncodeToDecodeIntoSteadyStateAllocs(t *testing.T) {
	const dim = 1 << 12
	g := allocGradient(dim, 9)
	sel, err := compress.FreshCompress(compress.NewTopK(), g, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	formats := []encoding.Format{encoding.FormatBitmap, encoding.FormatPairs64, encoding.FormatPairsBF16}
	for _, f := range formats {
		var buf []byte
		var dec tensor.Sparse
		// Warm the buffers, and verify the round-trip once.
		buf, err := encoding.EncodeTo(buf[:0], sel, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := encoding.DecodeInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
		if dec.NNZ() != sel.NNZ() || dec.Dim != sel.Dim {
			t.Fatalf("format %d: round-trip lost shape: nnz %d dim %d", f, dec.NNZ(), dec.Dim)
		}
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			buf, err = encoding.EncodeTo(buf[:0], sel, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := encoding.DecodeInto(&dec, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("format %d: EncodeTo+DecodeInto allocates %v objects/op, want 0", f, allocs)
		}
	}
}

// mallocsOver calls call warm times, then window times more, and returns
// the heap objects the window's calls allocated, all of them.
// testing.AllocsPerRun divides its count by the runs with integer
// division, so a buffer that regrows once in twenty calls reads 0 there;
// here it reads 1. The count comes from the memory profile at a rate of
// one sample per allocation, where every object allocated below call is
// recorded with its stack: runtime.MemStats.Mallocs also counts what the
// runtime allocates for itself meanwhile (the background scavenger grows
// its timer heap, 64 bytes, now and then), which is not the code's.
//
//go:noinline
func mallocsOver(warm, window int, call func(i int)) int64 {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	for i := range warm {
		call(i)
	}
	before := callAllocs()
	for i := range window {
		call(warm + i)
	}
	return callAllocs() - before
}

// callAllocs collects (which publishes the memory profile) and returns
// how many objects the profile holds from stacks through mallocsOver's
// calls — those through mallocsOver, but not through callAllocs itself.
//
//go:noinline
func callAllocs() (n int64) {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		recs = make([]runtime.MemProfileRecord, m+64)
	}
	for _, r := range recs {
		callee := ""
		for _, pc := range r.Stack() {
			name := ""
			if f := runtime.FuncForPC(pc - 1); f != nil {
				name = f.Name()
			}
			if strings.HasSuffix(name, ".mallocsOver") {
				if !strings.HasSuffix(callee, ".callAllocs") {
					n += r.AllocObjects
				}
				break
			}
			callee = name
		}
	}
	return n
}

// The step benchmark's warm-up, and the window a steady state must hold
// over without one allocation.
const (
	warmCalls   = 120
	windowCalls = 200
)

// TestMeanSparseIntoWindowMallocs merges fresh supports every call, each
// part holding each index with the same probability (so the union's size
// wanders about a fixed mean), at N = 2 and N = 8: after the warm-up the
// window must allocate nothing.
func TestMeanSparseIntoWindowMallocs(t *testing.T) {
	const dim, fill = 1 << 14, 0.05
	for _, n := range []int{2, 8} {
		rng := rand.New(rand.NewSource(int64(n)))
		parts := make([]tensor.Sparse, n)
		for p := range parts {
			parts[p].Grow(dim) // the fill below appends within this
		}
		var dst tensor.Sparse
		got := mallocsOver(warmCalls, windowCalls, func(int) {
			for p := range parts {
				parts[p].Reset(dim)
				for i := range dim {
					if rng.Float64() < fill {
						parts[p].Append(int32(i), rng.NormFloat64())
					}
				}
			}
			tensor.MeanSparseInto(&dst, parts)
		})
		if got != 0 {
			t.Errorf("N=%d: %d mallocs over %d merges after %d warm-up merges, want 0", n, got, windowCalls, warmCalls)
		}
	}
}

// TestErrorFeedbackWindowMallocs runs error feedback over sidco-e,
// sidco-gp and topk on resnet20-cifar10's gradient profile at its
// dimension, δ = 0.1 and 0.01: after the warm-up the window must allocate
// nothing. Each step's gradient is one of eight the profile drew, rotated
// by a random offset, so that every coordinate meets a fresh draw each
// step: stationary inputs. (Cycling the eight as they are adds the same
// eight values to each coordinate's residual again and again, which
// drifts; at δ = 0.01 Top-k's gather then grows with the drift, six times
// in 320 steps, two of them after step 120.)
func TestErrorFeedbackWindowMallocs(t *testing.T) {
	wl, err := dist.WorkloadByName("resnet20-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	const dim = 269467
	gen := wl.Grad.Generator(dim, 1)
	var pool [8][]float64
	for i := range pool {
		pool[i] = gen.Next()
	}
	g := make([]float64, dim)
	for _, name := range []string{"sidco-e", "sidco-gp", "topk"} {
		for _, delta := range []float64{0.1, 0.01} {
			t.Run(fmt.Sprintf("%s/%v", name, delta), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				ec := compress.NewErrorFeedback(MustCompressor(name, 7))
				dst := &tensor.Sparse{}
				got := mallocsOver(warmCalls, windowCalls, func(i int) {
					src, off := pool[i%len(pool)], rng.Intn(dim)
					copy(g[copy(g, src[off:]):], src[:off])
					if err := ec.CompressInto(dst, g, delta); err != nil {
						t.Fatal(err)
					}
				})
				if got != 0 {
					t.Errorf("%d mallocs over %d steps after %d warm-up steps, want 0", got, windowCalls, warmCalls)
				}
			})
		}
	}
}
