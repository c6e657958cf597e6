// Package nn is a small, exact neural-network library: dense,
// convolutional and recurrent layers with hand-derived backpropagation,
// a softmax cross-entropy loss, and SGD-family optimizers. It
// exists to produce genuine non-stationary gradient streams for the
// compression experiments — the substitution for the PyTorch models the
// paper trains — so correctness (verified by finite-difference gradient
// checks) comes first. It is also the largest layer of a training step
// (nn.fwdbwd_ms in the step benchmark), so the one layer every workload
// runs, Dense, is blocked over the batch (dense.go: W and ∂W streamed once
// per four rows, not once per row) and its backward over W (four rows of W
// a call, so each block of ∂y is loaded once for four rows and sixteen ∂x
// sums run side by side), gradients land straight in the
// caller's flat vector and ∂W is written once, not cleared and then
// accumulated (BindGrads) — or, for a caller that wants the gradient added
// into a vector it keeps, such as error feedback's residual, summed from +0
// and added into it once (BindGradsAdding), which can also sum |v| of the
// vector block by block as the backward stores it (stats.AbsPartials: the
// four rows of a call are then one from each of four consecutive
// 4096-element blocks, 4096/Out rows apart) — and the first layer's unread
// ∂x is not computed (Sequential.BackwardParams). None of it changes a bit
// of any result: the kernels are held to the row-at-a-time loops on
// math.Float64bits by TestDenseKernelsMatchRowAtATime.
//
// On an amd64 CPU with AVX2 (internal/cpu's CPUID and XGETBV probe, read
// once at init; there is no setting) Dense's full-block kernels and the narrower forward ones run
// from dense_amd64.s, four lanes per instruction. The rule that keeps them
// bit for bit the Go loops: every lane computes exactly the operations the
// Go loop computes for one element, in its order — a multiply rounded,
// then an add rounded, never a fused multiply-add — and with each
// operation's two operands in the order the Go compiler emits them in an
// optimised, uninstrumented build, which decides the result's payload when
// both are NaNs. ∂W's lanes are four consecutive j; the ∂x dot products'
// lanes are the four batch rows (∂y transposed in registers once per four
// j, for the four rows of W), each still summed over j in ascending order;
// the |∂W| chains' lanes are the four rows, so the four blocks. Rows left
// over from the groups of four and batch blocks of fewer than four rows
// run the Go loops on both paths. TestAVX2KernelsMatchGo holds each body
// to its Go twin, and the model-level tests run on both paths.
package nn

import (
	"fmt"

	"repro/internal/stats"
)

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
	// storage until BindGrads or BindGradsAdding points it into a caller's
	// vector: a dist.Trainer rebinds it every pass, so after a
	// Trainer.Step it aliases the last worker's flat gradient buffer or,
	// on the trainer's error-feedback route, its residual (which
	// compression has since rewritten). Between a BindGrads and the owning
	// layer's next Backward the G of a Dense parameter is unwritten —
	// stale values that Backward will overwrite, not add to (see
	// BindGrads).
	G []float64
	// Shape documents the logical shape of W.
	Shape []int

	// whole is the owning layer's opt-in to the unwritten-G and adding
	// binds (Dense sets it): one Backward computes its parameters' whole
	// gradient, so it can assign G or add it into G once per element.
	whole bool
	// mode is how the owning layer's next Backward writes G. Only the binds
	// set it to anything but gradAccumulate, and only on whole parameters.
	mode gradMode
	// sums, when BindGradsAdding was given partials, are the Σ|v| chains
	// of the vector G is a span of, from element off; nil otherwise.
	sums *stats.AbsPartials
	off  int
}

// gradMode is how a layer's Backward writes a parameter's gradient.
type gradMode uint8

const (
	// gradAccumulate: G += ∂W, row by row.
	gradAccumulate gradMode = iota
	// gradAssign: G is unwritten; G = ∂W, summed from +0 (BindGrads).
	gradAssign
	// gradAdd: G = G + ∂W, with ∂W summed from +0 first (BindGradsAdding).
	gradAdd
)

func newParam(name string, shape ...int) *Param {
	n := Volume(shape)
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n), Shape: shape}
}

// takeMode returns how G is to be written and resets it to accumulate: the
// caller is about to write it, and a second Backward before the next bind
// adds to what the first left.
func (p *Param) takeMode() gradMode {
	m := p.mode
	p.mode = gradAccumulate
	return m
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
		p.mode, p.sums = gradAccumulate, nil
	}
	off := 0
	for _, p := range params {
		n := len(p.W)
		if p.mode == gradAssign {
			// Listed twice (a shared layer): the span bound a moment ago is
			// abandoned for this one and no Backward will write it.
			clear(p.G)
		}
		p.G = flat[off : off+n : off+n]
		if p.whole {
			p.mode = gradAssign
		} else {
			clear(p.G)
		}
		off += n
	}
}

// CanBindAdding reports whether BindGradsAdding takes params: every
// parameter's layer computes its whole gradient in one Backward (Dense, on
// its own or in a TimeDistributed) and none is listed twice.
func CanBindAdding(params []*Param) bool {
	for i, p := range params {
		if !p.whole {
			return false
		}
		for _, q := range params[:i] {
			if q == p {
				return false
			}
		}
	}
	return true
}

// BindGradsAdding points every parameter's G at its span of acc, in
// parameter order, for the owning layer's next Backward to add the
// gradient into: G = G + ∂W, ∂W summed from +0 exactly as an unwritten G
// receives it (BindGrads) and added once per element. Bit for bit it is
// BindGrads onto a buffer g followed by acc[i] += g[i] — the sum error
// feedback forms before it compresses, here without g's buffer or the
// sweep that adds it — except that where both are NaNs the payload kept is
// the compiler's choice of operand order (the package doc). acc is not
// cleared; a second Backward before the next bind accumulates on top. It
// panics unless CanBindAdding(params).
//
// With sums not nil, the bind also Resets sums for acc, and each Dense
// whose rows tile whole 4096-element blocks of acc — Out divides 4096 and
// its W starts at a multiple of Out — sums |v| of those blocks as its
// Backward stores them, four blocks at a time: after the pass,
// sums.Total(acc) is Σ|acc| with no sweep over those blocks (error
// feedback's first stage under SIDCo-E). A second Backward into a span
// forgets its blocks' chains.
func BindGradsAdding(params []*Param, acc []float64, sums *stats.AbsPartials) {
	if len(acc) != ParamCount(params) {
		panic("nn: BindGradsAdding size mismatch")
	}
	for _, p := range params {
		p.mode = gradAccumulate
	}
	off := 0
	for _, p := range params {
		if !p.whole || p.mode == gradAdd {
			panic("nn: BindGradsAdding needs every parameter a Dense's, listed once")
		}
		n := len(p.W)
		p.G = acc[off : off+n : off+n]
		p.mode, p.sums, p.off = gradAdd, sums, off
		off += n
	}
	if sums != nil {
		sums.Reset(len(acc))
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
