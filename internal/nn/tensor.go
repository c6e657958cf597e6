// Package nn is a small, exact neural-network library: dense,
// convolutional and recurrent layers with hand-derived backpropagation,
// a softmax cross-entropy loss, and SGD-family optimizers. It
// exists to produce genuine non-stationary gradient streams for the
// compression experiments — the substitution for the PyTorch models the
// paper trains — so correctness (verified by finite-difference gradient
// checks) comes first. It is also the largest layer of a training step
// (nn.fwdbwd_ms in the step benchmark), so the one layer every workload
// runs, Dense, is blocked over the batch (dense.go: W and ∂W streamed once
// per four rows, not once per row), gradients land straight in the
// caller's flat vector and ∂W is written once, not cleared and then
// accumulated (BindGrads), and the first layer's unread ∂x is not computed
// (Sequential.BackwardParams). None of it changes a bit of any result: the
// kernels are held to the row-at-a-time loops on math.Float64bits by
// TestDenseKernelsMatchRowAtATime.
//
// On an amd64 CPU with AVX2 (internal/cpu's CPUID and XGETBV probe, read
// once at init; there is no setting) Dense's full-block kernels and the narrower forward ones run
// from dense_amd64.s, four lanes per instruction. The rule that keeps them
// bit for bit the Go loops: every lane computes exactly the operations the
// Go loop computes for one element, in its order — a multiply rounded,
// then an add rounded, never a fused multiply-add — and with each
// operation's two operands in the order the Go compiler emits them in an
// optimised, uninstrumented build, which decides the result's payload when
// both are NaNs. ∂W's lanes are four
// consecutive j; the ∂x dot products' lanes are the four batch rows, each
// still summed over j in ascending order. TestAVX2KernelsMatchGo holds
// each body to its Go twin, and the model-level tests run on both paths.
package nn

import "fmt"

// Tensor is a dense n-dimensional array in row-major order.
type Tensor struct {
	Shape []int
	Data  []float64
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	return &Tensor{Shape: shape, Data: make([]float64, Volume(shape))}
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	v := 1
	for _, s := range shape {
		if s < 0 {
			// The copy keeps the panic message intact without making the
			// shape parameter escape: Volume sits on the allocation-free
			// hot path of every layer's ensure call, where a heap-escaping
			// variadic slice would cost one allocation per layer per pass.
			panic(fmt.Sprintf("nn: negative dimension %v", append([]int(nil), shape...)))
		}
		v *= s
	}
	return v
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// ensure returns the cached tensor resized to shape with zeroed storage —
// the steady-state replacement for NewTensor inside layer Forward and
// Backward passes. Each layer owns its output and input-gradient buffers,
// so once batch shapes stabilise a full forward/backward allocates
// nothing. Callers get NewTensor semantics (zeroed data) with recycled
// backing arrays; the previous pass's result becomes invalid, which is
// safe because training consumes activations within the step that
// produced them.
func ensure(cache **Tensor, shape ...int) *Tensor {
	n := Volume(shape)
	t := *cache
	if t == nil {
		t = &Tensor{}
		*cache = t
	}
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	} else {
		t.Data = t.Data[:n]
		clear(t.Data)
	}
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// scratch returns a zeroed []float64 of length n backed by *buf, growing
// it as needed — the slice counterpart of ensure for recurrence state and
// gate caches.
func scratch(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// viewInto reshapes src into the cached view tensor without copying —
// the zero-allocation counterpart of Reshape for layers that only
// re-interpret shapes (Flatten, TimeDistributed).
func viewInto(cache **Tensor, src *Tensor, shape ...int) *Tensor {
	if Volume(shape) != len(src.Data) {
		// Copied for the same no-escape reason as in Volume.
		panic(fmt.Sprintf("nn: reshape %v -> %v changes volume", src.Shape, append([]int(nil), shape...)))
	}
	t := *cache
	if t == nil {
		t = &Tensor{}
		*cache = t
	}
	t.Data = src.Data
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Param is a trainable parameter: weights plus accumulated gradient.
type Param struct {
	// Name identifies the parameter in diagnostics ("dense1.W").
	Name string
	// W is the weight storage.
	W []float64
	// G is the gradient accumulated by Backward. It is the parameter's own
	// storage until BindGrads
	// points it into a flat vector: a dist.Trainer rebinds it every pass,
	// so after a Trainer.Step it aliases the last worker's flat gradient
	// buffer (which compression and clipping have since rewritten).
	// Between a BindGrads and the owning layer's next Backward the G of a
	// Dense parameter is unwritten — stale values that Backward will
	// overwrite, not add to (see BindGrads).
	G []float64
	// Shape documents the logical shape of W.
	Shape []int

	// assignFirst is the owning layer's opt-in to the unwritten-G contract
	// (Dense sets it): its Backward assigns a G marked unwritten instead of
	// accumulating into it.
	assignFirst bool
	// unwritten marks G as holding no gradient yet: its contents are
	// whatever the bound buffer last held and must be overwritten, not
	// added to. Only BindGrads sets it, only on assignFirst parameters.
	unwritten bool
}

func newParam(name string, shape ...int) *Param {
	n := Volume(shape)
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n), Shape: shape}
}

// takeUnwritten reports whether G is marked unwritten and clears the mark:
// the caller is about to write it.
func (p *Param) takeUnwritten() bool {
	u := p.unwritten
	p.unwritten = false
	return u
}

// ParamCount sums the weight counts of params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W)
	}
	return n
}

// BindGrads points every parameter's G at its span of flat, in parameter
// order, and makes flat read as a zero gradient, so Backward lands straight
// in the caller's flat gradient vector — the one handed to the compressor
// each iteration — with no copy out afterwards. The caller does not clear
// flat. Spans of parameters whose layer accumulates (Conv2D, LSTM,
// Embedding) are cleared here; spans of parameters whose layer
// opted in to the unwritten-G contract (Dense) are not touched at all but
// marked unwritten: the layer's first Backward after the bind assigns them
// — one write of ∂W where clear-then-accumulate costs a write, a read and
// a write, with the same bits — and clears the mark, so every later
// Backward (TimeDistributed, a layer used twice) accumulates. Until that
// Backward an unwritten G holds stale values; nothing may read it. The
// parameters' previous G storage is released.
func BindGrads(params []*Param, flat []float64) {
	if len(flat) != ParamCount(params) {
		panic("nn: BindGrads size mismatch")
	}
	for _, p := range params {
		p.unwritten = false
	}
	off := 0
	for _, p := range params {
		n := len(p.W)
		if p.unwritten {
			// Listed twice (a shared layer): the span bound a moment ago is
			// abandoned for this one and no Backward will write it.
			clear(p.G)
		}
		p.G = flat[off : off+n : off+n]
		if p.assignFirst {
			p.unwritten = true
		} else {
			clear(p.G)
		}
		off += n
	}
}

// FlattenWeights concatenates all weights (for checkpoint comparison in
// tests).
//
//sidco:oracle the weight snapshot the bit-identity and resume tests compare
func FlattenWeights(params []*Param, dst []float64) []float64 {
	n := ParamCount(params)
	if dst == nil {
		dst = make([]float64, n)
	}
	off := 0
	for _, p := range params {
		copy(dst[off:], p.W)
		off += len(p.W)
	}
	return dst
}
