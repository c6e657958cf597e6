package nn

import (
	"fmt"
	"math/rand"
)

// Conv2D is a 2-D convolution (stride 1, valid padding) over inputs of
// shape [B, C, H, W] with kernels [OutC, C, K, K], producing
// [B, OutC, H-K+1, W-K+1].
type Conv2D struct {
	InC, OutC, K int
	W            *Param // [OutC, InC, K, K]
	B            *Param // [OutC]

	x           *Tensor
	out, gradIn *Tensor
}

// NewConv2D creates a convolution with Glorot-uniform kernels.
func NewConv2D(name string, inC, outC, k int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC:  inC,
		OutC: outC,
		K:    k,
		W:    newParam(name+".W", outC, inC, k, k),
		B:    newParam(name+".b", outC),
	}
	initUniform(rng, c.W.W, inC*k*k, outC*k*k)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.W.Name[:len(c.W.Name)-2] }

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv %s: input shape %v, want [B, %d, H, W]", c.Name(), x.Shape, c.InC))
	}
	c.x = x
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := h-c.K+1, w-c.K+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv %s: input %dx%d smaller than kernel %d", c.Name(), h, w, c.K))
	}
	out := ensure(&c.out, batch, c.OutC, oh, ow)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B.W[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := bias
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							xRow := x.Data[((b*c.InC+ic)*h+oy+ky)*w+ox:]
							wRow := c.W.W[((oc*c.InC+ic)*c.K+ky)*c.K:]
							for kx := 0; kx < c.K; kx++ {
								sum += float64(xRow[kx] * wRow[kx])
							}
						}
					}
					out.Data[((b*c.OutC+oc)*oh+oy)*ow+ox] = sum
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *Tensor) *Tensor {
	x := c.x
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := h-c.K+1, w-c.K+1
	gradIn := ensure(&c.gradIn, batch, c.InC, h, w)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gradOut.Data[((b*c.OutC+oc)*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
					c.B.G[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							xRow := x.Data[((b*c.InC+ic)*h+oy+ky)*w+ox:]
							wRow := c.W.W[((oc*c.InC+ic)*c.K+ky)*c.K:]
							wgRow := c.W.G[((oc*c.InC+ic)*c.K+ky)*c.K:]
							giRow := gradIn.Data[((b*c.InC+ic)*h+oy+ky)*w+ox:]
							for kx := 0; kx < c.K; kx++ {
								wgRow[kx] += float64(g * xRow[kx])
								giRow[kx] += float64(g * wRow[kx])
							}
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is 2x2 max pooling with stride 2 over [B, C, H, W]; odd
// trailing rows/columns are dropped (floor semantics).
type MaxPool2D struct {
	argmax      []int
	inShape     []int
	out, gradIn *Tensor
}

// Name implements Layer.
func (*MaxPool2D) Name() string { return "maxpool2" }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: maxpool: input shape %v, want [B, C, H, W]", x.Shape))
	}
	m.inShape = append(m.inShape[:0], x.Shape...)
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	out := ensure(&m.out, batch, ch, oh, ow)
	m.argmax = m.argmax[:0]
	for b := 0; b < batch; b++ {
		for c := 0; c < ch; c++ {
			base := (b*ch + c) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (2*oy)*w + 2*ox
					best := x.Data[bestIdx]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := base + (2*oy+dy)*w + 2*ox + dx
							if x.Data[idx] > best {
								best = x.Data[idx]
								bestIdx = idx
							}
						}
					}
					out.Data[((b*ch+c)*oh+oy)*ow+ox] = best
					m.argmax = append(m.argmax, bestIdx)
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(gradOut *Tensor) *Tensor {
	gradIn := ensure(&m.gradIn, m.inShape...)
	for i, src := range m.argmax {
		gradIn.Data[src] += gradOut.Data[i]
	}
	return gradIn
}

// Params implements Layer.
func (*MaxPool2D) Params() []*Param { return nil }
