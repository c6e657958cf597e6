package nn

import (
	"math"
	"math/rand"
)

// Layer is one differentiable stage of a network. Forward must be called
// before Backward; layers cache whatever activations they need for the
// backward pass (single in-flight batch).
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// Forward computes the layer output for x.
	Forward(x *Tensor) *Tensor
	// Backward receives dL/d(output) and returns dL/d(input), adding
	// parameter gradients into the layer's Params — or, for a layer that
	// opted in to it (Dense), assigning a G that BindGrads marked
	// unwritten, or adding the whole gradient into a G bound by
	// BindGradsAdding once per element.
	Backward(gradOut *Tensor) *Tensor
	// Params returns the trainable parameters (empty for stateless
	// layers).
	Params() []*Param
}

// ParamsBackwarder is the optional form of Layer.Backward for a layer whose
// input gradient nobody reads: the parameter gradients land exactly as
// Backward leaves them and dL/d(input) is not computed. Dense and
// Sequential implement it.
type ParamsBackwarder interface {
	BackwardParams(gradOut *Tensor)
}

// Sequential chains layers. Layers must not change once a pass has run.
type Sequential struct {
	Layers []Layer

	// first is the index of the first layer with parameters, found on the
	// first BackwardParams (firstKnown): no layer before it has a gradient
	// to receive.
	first      int
	firstKnown bool
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// Forward implements Layer.
func (s *Sequential) Forward(x *Tensor) *Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *Tensor) *Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardParams is Backward for a caller that does not read dL/d(input) —
// a training step: every parameter gradient is what Backward leaves, and
// the chain stops at the first layer that has parameters. The parameter-free
// layers before it are skipped, and that layer itself skips its input
// gradient if it can (ParamsBackwarder).
func (s *Sequential) BackwardParams(gradOut *Tensor) {
	if !s.firstKnown {
		s.first = len(s.Layers)
		for i, l := range s.Layers {
			if len(l.Params()) > 0 {
				s.first = i
				break
			}
		}
		s.firstKnown = true
	}
	for i := len(s.Layers) - 1; i > s.first; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	if s.first == len(s.Layers) {
		return
	}
	if pb, ok := s.Layers[s.first].(ParamsBackwarder); ok {
		pb.BackwardParams(gradOut)
	} else {
		s.Layers[s.first].Backward(gradOut)
	}
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// initUniform fills w with Glorot/Xavier uniform values for the given fan
// counts.
func initUniform(rng *rand.Rand, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	// Two loops: in one, the compiler would fuse the rng's scaling
	// product into the subtraction on the platforms that fuse.
	for i := range w {
		w[i] = rng.Float64()
	}
	for i, u := range w {
		w[i] = (float64(2*u) - 1) * limit
	}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask        []bool
	out, gradIn *Tensor
}

// Name implements Layer.
func (*ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	out := ensure(&r.out, x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			r.mask[i] = true
			out.Data[i] = v
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *Tensor) *Tensor {
	in := ensure(&r.gradIn, gradOut.Shape...)
	for i, g := range gradOut.Data {
		if r.mask[i] {
			in.Data[i] = g
		}
	}
	return in
}

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

// Flatten collapses all axes after the batch axis.
type Flatten struct {
	inShape          []int
	outView, gradInV *Tensor
}

// Name implements Layer.
func (*Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor) *Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	batch := x.Shape[0]
	return viewInto(&f.outView, x, batch, len(x.Data)/batch)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *Tensor) *Tensor {
	return viewInto(&f.gradInV, gradOut, f.inShape...)
}

// Params implements Layer.
func (*Flatten) Params() []*Param { return nil }
