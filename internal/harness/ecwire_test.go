package harness

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// heavyTailedGrad builds a gradient with the pathologies that stress a
// selection and a narrow wire: exact magnitude ties, zeros, and a
// lognormal heavy tail.
func heavyTailedGrad(d int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, d)
	for i := range g {
		switch rng.Intn(10) {
		case 0:
			g[i] = 0
		case 1, 2:
			if rng.Intn(2) == 0 {
				g[i] = 0.5
			} else {
				g[i] = -0.5
			}
		default:
			v := math.Exp(rng.NormFloat64() * 2)
			if rng.Intn(2) == 0 {
				v = -v
			}
			g[i] = v
		}
	}
	return g
}

// TestErrorFeedbackWireFormat checks the quantized-wire EC contract: the
// emitted values are exactly what a decoder of the configured format
// reconstructs, and the quantization error joins the residual instead of
// being lost.
func TestErrorFeedbackWireFormat(t *testing.T) {
	const d = 4096
	const delta = 0.05
	g := heavyTailedGrad(d, 7)

	for _, f := range []encoding.Format{encoding.FormatBitmap, encoding.FormatPairsBF16} {
		ec := compress.NewErrorFeedback(compress.NewTopK())
		ec.SetWireFormat(f)
		var dst tensor.Sparse
		if err := ec.CompressInto(&dst, g, delta); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}

		// Emitted values must be fixed points of the wire round-trip.
		rt := append([]float64(nil), dst.Vals...)
		if err := encoding.RoundTripValues(f, rt); err != nil {
			t.Fatalf("format %d round-trip: %v", f, err)
		}
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(dst.Vals[i]) {
				t.Fatalf("format %d: val[%d] %v not wire-exact (decodes to %v)", f, i, dst.Vals[i], rt[i])
			}
		}

		// residual[j] must equal g[j] - emitted[j] on selected coordinates
		// (first step: residual starts at zero), i.e. the quantization
		// error is absorbed, not discarded.
		res := ec.Residual()
		for i, j := range dst.Idx {
			want := g[j] - dst.Vals[i]
			if math.Float64bits(res[j]) != math.Float64bits(want) {
				t.Fatalf("format %d: residual[%d] = %v, want %v", f, j, res[j], want)
			}
		}
	}

	// Without a wire format EC is plain: emitted values are the corrected
	// gradient values untouched.
	ec := compress.NewErrorFeedback(compress.NewTopK())
	var dst tensor.Sparse
	if err := ec.CompressInto(&dst, g, delta); err != nil {
		t.Fatal(err)
	}
	for i, j := range dst.Idx {
		if math.Float64bits(dst.Vals[i]) != math.Float64bits(g[j]) {
			t.Fatalf("plain EC rounds: val[%d]=%v want %v", i, dst.Vals[i], g[j])
		}
	}
}
