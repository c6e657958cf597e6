package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single-layer long short-term memory recurrence over
// [B, T, In] producing [B, T, H] — the architecture of the paper's PTB
// and AN4 benchmarks. Gate pre-activations are packed as [i, f, g, o]
// blocks of size H.
type LSTM struct {
	In, Hidden int
	Wx         *Param // [In, 4H]
	Wh         *Param // [H, 4H]
	B          *Param // [4H]

	x     *Tensor
	hs    []float64 // [B, T, H] hidden states
	cs    []float64 // [B, T, H] cell states
	gates []float64 // [B, T, 4H] post-nonlinearity gate values

	out, gradIn          *Tensor
	aBuf, daBuf          []float64 // gate pre-activation / BPTT scratch
	dhNextBuf, dcNextBuf []float64
}

// NewLSTM creates the cell with Glorot init and forget-gate bias 1 (the
// standard trick for stable early training).
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     newParam(name+".Wx", in, 4*hidden),
		Wh:     newParam(name+".Wh", hidden, 4*hidden),
		B:      newParam(name+".b", 4*hidden),
	}
	initUniform(rng, l.Wx.W, in, hidden)
	initUniform(rng, l.Wh.W, hidden, hidden)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W[j] = 1 // forget gate
	}
	return l
}

// Name implements Layer.
func (l *LSTM) Name() string { return l.Wx.Name[:len(l.Wx.Name)-3] }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward implements Layer.
func (l *LSTM) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.In {
		panic(fmt.Sprintf("nn: lstm %s: input shape %v, want [B, T, %d]", l.Name(), x.Shape, l.In))
	}
	l.x = x
	batch, T, H := x.Shape[0], x.Shape[1], l.Hidden
	H4 := 4 * H
	out := ensure(&l.out, batch, T, H)
	l.hs = out.Data
	l.cs = scratch(&l.cs, batch*T*H)
	l.gates = scratch(&l.gates, batch*T*H4)
	a := scratch(&l.aBuf, H4)
	for b := 0; b < batch; b++ {
		var hPrev, cPrev []float64
		for t := 0; t < T; t++ {
			xRow := x.Data[(b*T+t)*l.In : (b*T+t+1)*l.In]
			copy(a, l.B.W)
			for i, xv := range xRow {
				if xv == 0 {
					continue
				}
				w := l.Wx.W[i*H4 : (i+1)*H4]
				for j := range a {
					a[j] += xv * w[j]
				}
			}
			if hPrev != nil {
				for i, hv := range hPrev {
					if hv == 0 {
						continue
					}
					w := l.Wh.W[i*H4 : (i+1)*H4]
					for j := range a {
						a[j] += hv * w[j]
					}
				}
			}
			gate := l.gates[(b*T+t)*H4 : (b*T+t+1)*H4]
			h := out.Data[(b*T+t)*H : (b*T+t+1)*H]
			c := l.cs[(b*T+t)*H : (b*T+t+1)*H]
			for j := 0; j < H; j++ {
				ig := sigmoid(a[j])
				fg := sigmoid(a[H+j])
				gg := math.Tanh(a[2*H+j])
				og := sigmoid(a[3*H+j])
				gate[j], gate[H+j], gate[2*H+j], gate[3*H+j] = ig, fg, gg, og
				cv := ig * gg
				if cPrev != nil {
					cv += fg * cPrev[j]
				}
				c[j] = cv
				h[j] = og * math.Tanh(cv)
			}
			hPrev, cPrev = h, c
		}
	}
	return out
}

// Backward implements Layer (full BPTT).
func (l *LSTM) Backward(gradOut *Tensor) *Tensor {
	x := l.x
	batch, T, H := x.Shape[0], x.Shape[1], l.Hidden
	H4 := 4 * H
	gradIn := ensure(&l.gradIn, batch, T, l.In)
	da := scratch(&l.daBuf, H4)
	for b := 0; b < batch; b++ {
		dhNext := scratch(&l.dhNextBuf, H)
		dcNext := scratch(&l.dcNextBuf, H)
		for t := T - 1; t >= 0; t-- {
			gate := l.gates[(b*T+t)*H4 : (b*T+t+1)*H4]
			c := l.cs[(b*T+t)*H : (b*T+t+1)*H]
			var cPrev []float64
			if t > 0 {
				cPrev = l.cs[(b*T+t-1)*H : (b*T+t)*H]
			}
			for j := 0; j < H; j++ {
				ig, fg, gg, og := gate[j], gate[H+j], gate[2*H+j], gate[3*H+j]
				tc := math.Tanh(c[j])
				dh := gradOut.Data[(b*T+t)*H+j] + dhNext[j]
				dc := dcNext[j] + dh*og*(1-tc*tc)
				dog := dh * tc
				dig := dc * gg
				dgg := dc * ig
				var dfg float64
				if cPrev != nil {
					dfg = dc * cPrev[j]
					dcNext[j] = dc * fg
				} else {
					dcNext[j] = 0
				}
				da[j] = dig * ig * (1 - ig)
				da[H+j] = dfg * fg * (1 - fg)
				da[2*H+j] = dgg * (1 - gg*gg)
				da[3*H+j] = dog * og * (1 - og)
				l.B.G[j] += da[j]
				l.B.G[H+j] += da[H+j]
				l.B.G[2*H+j] += da[2*H+j]
				l.B.G[3*H+j] += da[3*H+j]
			}
			xRow := x.Data[(b*T+t)*l.In : (b*T+t+1)*l.In]
			giRow := gradIn.Data[(b*T+t)*l.In : (b*T+t+1)*l.In]
			for i, xv := range xRow {
				w := l.Wx.W[i*H4 : (i+1)*H4]
				wg := l.Wx.G[i*H4 : (i+1)*H4]
				sum := 0.0
				for j, dv := range da {
					wg[j] += xv * dv
					sum += w[j] * dv
				}
				giRow[i] = sum
			}
			for j := range dhNext {
				dhNext[j] = 0
			}
			if t > 0 {
				hPrev := l.hs[(b*T+t-1)*H : (b*T+t)*H]
				for i, hv := range hPrev {
					w := l.Wh.W[i*H4 : (i+1)*H4]
					wg := l.Wh.G[i*H4 : (i+1)*H4]
					sum := 0.0
					for j, dv := range da {
						wg[j] += hv * dv
						sum += w[j] * dv
					}
					dhNext[i] = sum
				}
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
