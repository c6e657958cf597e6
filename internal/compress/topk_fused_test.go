package compress_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// hidden forwards compress.Compressor and nothing else, so ErrorFeedback
// sees no AccumulateCompressor on it and takes the tensor.Add +
// CompressInto arm: the oracle the fused arm is held to.
type hidden struct{ compress.Compressor }

// wireUnset marks the configurations that leave SetWireFormat alone.
const wireUnset = encoding.Format(255)

// topKPair is EC over a TopK through the fused arm beside EC over another
// TopK through the unfused one.
type topKPair struct {
	what         string
	delta        float64
	fused, plain *compress.ErrorFeedback
	df, dp       tensor.Sparse
}

func newTopKPair(what string, delta float64, wire encoding.Format) *topKPair {
	p := &topKPair{
		what:  what,
		delta: delta,
		fused: compress.NewErrorFeedback(compress.NewTopK()),
		plain: compress.NewErrorFeedback(hidden{compress.NewTopK()}),
	}
	if _, ok := p.fused.Inner.(compress.AccumulateCompressor); !ok {
		panic("compress: TopK does not offer the fused arm")
	}
	if wire != wireUnset {
		p.fused.SetWireFormat(wire)
		p.plain.SetWireFormat(wire)
	}
	return p
}

// step compresses g on both arms and holds the errors equal and the
// selection and the residual equal bit for bit.
func (p *topKPair) step(t *testing.T, step int, g []float64, delta float64) error {
	t.Helper()
	errF := p.fused.CompressInto(&p.df, g, delta)
	errP := p.plain.CompressInto(&p.dp, g, delta)
	if (errF == nil) != (errP == nil) || errF != nil && errF.Error() != errP.Error() {
		t.Fatalf("%s step %d: fused err %v, unfused err %v", p.what, step, errF, errP)
	}
	if errF == nil {
		if p.df.Dim != p.dp.Dim || len(p.df.Idx) != len(p.dp.Idx) || len(p.df.Vals) != len(p.dp.Idx) {
			t.Fatalf("%s step %d: fused selected %d of %d, unfused %d of %d", p.what, step, len(p.df.Idx), p.df.Dim, len(p.dp.Idx), p.dp.Dim)
		}
		for i := range p.dp.Idx {
			if p.df.Idx[i] != p.dp.Idx[i] || math.Float64bits(p.df.Vals[i]) != math.Float64bits(p.dp.Vals[i]) {
				t.Fatalf("%s step %d: selection[%d] = (%d, %v), unfused (%d, %v)", p.what, step, i,
					p.df.Idx[i], p.df.Vals[i], p.dp.Idx[i], p.dp.Vals[i])
			}
		}
	}
	rf, rp := p.fused.Residual(), p.plain.Residual()
	for i := range rp {
		if math.Float64bits(rf[i]) != math.Float64bits(rp[i]) {
			t.Fatalf("%s step %d: residual[%d] = %v, unfused %v", p.what, step, i, rf[i], rp[i])
		}
	}
	return errF
}

// TestTopKFusedMatchesUnfused is the equivalence grid of Top-k's fused
// error-feedback arm: 30 steps of two Table 1 gradient profiles at every
// ratio, wire rounding and dimension — one short of the radix-select
// floor (the quickselect path), just past it, and ResNet-20's, the step
// benchmark's grad-topk-bitmap-ps shape. After the grid, a ratio TopK
// rejects must still leave residual += g on both arms.
func TestTopKFusedMatchesUnfused(t *testing.T) {
	const steps = 30
	for _, profile := range []string{"resnet20-cifar10", "lstm-ptb"} {
		wl, err := dist.WorkloadByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range []int{1<<14 - 1, 1<<14 + 27, 269467} {
			if testing.Short() && dim > 1<<15 {
				continue
			}
			gen := wl.Grad.Generator(dim, 17)
			var pairs []*topKPair
			for _, delta := range []float64{0.1, 0.01, 0.001} {
				for _, wire := range []encoding.Format{wireUnset, encoding.FormatBitmap, encoding.FormatPairsBF16} {
					what := fmt.Sprintf("%s d=%d delta=%v wire=%d", profile, dim, delta, wire)
					pairs = append(pairs, newTopKPair(what, delta, wire))
				}
			}
			g := make([]float64, dim)
			for i := 0; i < steps; i++ {
				gen.Fill(g)
				for _, p := range pairs {
					if err := p.step(t, i, g, p.delta); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, delta := range []float64{math.NaN(), 0, 1.5} {
				for _, p := range pairs {
					want := tensor.Clone(p.plain.Residual())
					tensor.Add(g, want)
					if err := p.step(t, steps, g, delta); err == nil {
						t.Fatalf("%s: ratio %v accepted", p.what, delta)
					}
					for i, w := range want {
						if math.Float64bits(p.fused.Residual()[i]) != math.Float64bits(w) {
							t.Fatalf("%s ratio %v: residual[%d] = %v after a refused step, want r + g = %v", p.what, delta, i, p.fused.Residual()[i], w)
						}
					}
				}
			}
		}
	}
}
