package harness

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compress"
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
			// The sidco-* rows of this guard are the fused arm's: the add
			// rides their first sweep through AccumulateCompressor.
			if _, fused := c.Inner.(compress.AccumulateCompressor); fused != strings.HasPrefix(name, "sidco-") {
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
	formats := []encoding.Format{
		encoding.FormatPairs, encoding.FormatBitmap, encoding.FormatDense,
		encoding.FormatDeltaVarint, encoding.FormatPairs64,
		encoding.FormatPairsF16, encoding.FormatPairsBF16, encoding.FormatPairsI8,
	}
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
