package nn

import (
	"fmt"
	"math/rand"
)

// Dense is a fully-connected layer: y = x W + b, with x of shape [B, in]
// and y of shape [B, out].
type Dense struct {
	In, Out int
	W       *Param // shape [in, out]
	B       *Param // shape [out]

	x           *Tensor // cached input
	out, gradIn *Tensor // reused output / input-gradient storage
}

// NewDense creates a dense layer with Glorot-uniform weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam(name+".W", in, out),
		B:   newParam(name+".b", out),
	}
	// Backward assigns an unwritten G instead of accumulating into a
	// cleared one (see BindGrads).
	d.W.assignFirst, d.B.assignFirst = true, true
	initUniform(rng, d.W.W, in, out)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.W.Name[:len(d.W.Name)-2] }

// denseBlock is how many batch rows one kernel call covers. Forward and
// Backward walk the batch in blocks of up to this many rows so that W (and
// ∂W in Backward) is streamed once per block rather than once per row, and
// so that Backward's per-row ∂x dot products — serial add chains — run
// side by side. Every sum keeps the operand order of the row-at-a-time
// loops (over i in Forward, over b for ∂W and ∂b, over j for ∂x), so the
// results are bit-identical to them: TestDenseKernelsMatchRowAtATime holds
// those loops as the reference.
const denseBlock = 4

// denseKernels are the kernels over one row of W that have an AVX2 body
// (dense_amd64.s), each with its Go twin's signature.
type denseKernels struct {
	axpy1     func(w []float64, x0 float64, o0 []float64)
	axpy2     func(w []float64, x0, x1 float64, o0, o1 []float64)
	axpy3     func(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64)
	axpy4     func(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64)
	gradW4    func(wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64)
	backward4 func(w, wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) (s0, s1, s2, s3 float64)
}

// goKernels are the Go loops below: the path on a machine without AVX2 and
// the oracle the AVX2 bodies are tested against. Called through these
// values they are never inlined, so each is one compiled body with one
// operand order (package doc).
var goKernels = denseKernels{axpy1, axpy2, axpy3, axpy4, gradW4, backward4}

// kernels is what Dense calls: goKernels, or the AVX2 bodies when
// dense_amd64.go's init finds the CPU and OS support them.
var kernels = &goKernels

// Forward implements Layer.
//
//sidco:hotpath
func (d *Dense) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: dense %s: input shape %v, want [B, %d]", d.Name(), x.Shape, d.In)) //sidco:alloc shape-mismatch panic, a caller bug and not steady state
	}
	d.x = x
	batch := x.Shape[0]
	out := ensure(&d.out, batch, d.Out)
	in, width := d.In, d.Out
	k := kernels
	for b0 := 0; b0 < batch; b0 += denseBlock {
		nb := min(denseBlock, batch-b0)
		for b := b0; b < b0+nb; b++ {
			copy(out.Data[b*width:(b+1)*width], d.B.W)
		}
		// Per input i, the block's rows with x[b][i] != 0 (post-ReLU
		// inputs are about half zeros) are gathered and share one pass
		// over W[i]: its row is loaded once for all of them.
		var xs [denseBlock]float64
		var os [denseBlock][]float64
		for i := 0; i < in; i++ {
			n := 0
			for b := b0; b < b0+nb; b++ {
				if xv := x.Data[b*in+i]; xv != 0 {
					xs[n] = xv
					os[n] = out.Data[b*width : (b+1)*width]
					n++
				}
			}
			w := d.W.W[i*width : (i+1)*width]
			switch n {
			case 1:
				k.axpy1(w, xs[0], os[0])
			case 2:
				k.axpy2(w, xs[0], xs[1], os[0], os[1])
			case 3:
				k.axpy3(w, xs[0], xs[1], xs[2], os[0], os[1], os[2])
			case 4:
				k.axpy4(w, xs[0], xs[1], xs[2], xs[3], os[0], os[1], os[2], os[3])
			}
		}
	}
	return out
}

// axpy1…axpy4 add x_r * w into o_r for one to four output rows, loading
// each w[j] once. The reslices let the compiler drop the bounds checks.

func axpy1(w []float64, x0 float64, o0 []float64) {
	o0 = o0[:len(w)]
	for j, wv := range w {
		o0[j] += x0 * wv
	}
}

func axpy2(w []float64, x0, x1 float64, o0, o1 []float64) {
	o0, o1 = o0[:len(w)], o1[:len(w)]
	for j, wv := range w {
		o0[j] += x0 * wv
		o1[j] += x1 * wv
	}
}

func axpy3(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64) {
	o0, o1, o2 = o0[:len(w)], o1[:len(w)], o2[:len(w)]
	for j, wv := range w {
		o0[j] += x0 * wv
		o1[j] += x1 * wv
		o2[j] += x2 * wv
	}
}

func axpy4(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64) {
	o0, o1, o2, o3 = o0[:len(w)], o1[:len(w)], o2[:len(w)], o3[:len(w)]
	for j, wv := range w {
		o0[j] += x0 * wv
		o1[j] += x1 * wv
		o2[j] += x2 * wv
		o3[j] += x3 * wv
	}
}

// Backward implements Layer.
//
//sidco:hotpath
func (d *Dense) Backward(gradOut *Tensor) *Tensor {
	gradIn := ensure(&d.gradIn, d.x.Shape[0], d.In)
	d.backward(gradOut, gradIn.Data)
	return gradIn
}

// BackwardParams is Backward without the input gradient: ∂W and ∂b land in
// the parameters exactly as Backward leaves them, the ∂x dot products are
// not computed and W is not read. Sequential.BackwardParams calls it on a
// first layer whose ∂x nobody consumes.
//
//sidco:hotpath
func (d *Dense) BackwardParams(gradOut *Tensor) { d.backward(gradOut, nil) }

// backward runs the batch-blocked backward kernels: ∂W and ∂b always, the
// per-row ∂x into gi unless it is nil. A parameter whose G is unwritten
// (BindGrads) is assigned by the first block and accumulated into by the
// rest; the mark is taken here, so a second Backward before the next bind —
// TimeDistributed, a layer used twice — accumulates.
func (d *Dense) backward(gradOut *Tensor, gi []float64) {
	batch := d.x.Shape[0]
	in, width := d.In, d.Out
	x := d.x.Data
	assignW, assignB := d.W.takeUnwritten(), d.B.takeUnwritten()
	k := kernels
	if batch == 0 {
		// No block will write them: an empty batch's gradient is zero.
		if assignW {
			clear(d.W.G)
		}
		if assignB {
			clear(d.B.G)
		}
		return
	}
	for b0 := 0; b0 < batch; b0 += denseBlock {
		nb := min(denseBlock, batch-b0)
		var g [denseBlock][]float64
		for r := 0; r < nb; r++ {
			g[r] = gradOut.Data[(b0+r)*width : (b0+r+1)*width]
			bg := d.B.G[:width]
			if assignB && b0+r == 0 {
				for j, gv := range g[r] {
					bg[j] = 0 + gv // the +0 a cleared G would have supplied: -0 lands as +0
				}
				continue
			}
			for j, gv := range g[r] {
				bg[j] += gv
			}
		}
		// One pass over j per input i: the block's rows go into ∂W[i][j]
		// in ascending row order, and each row's ∂x dot product has its
		// own accumulator.
		assign := assignW && b0 == 0
		r0, r1, r2, r3 := b0*in, (b0+1)*in, (b0+2)*in, (b0+3)*in
		for i := 0; i < in; i++ {
			wg := d.W.G[i*width : (i+1)*width]
			if gi == nil {
				switch nb {
				case 1:
					gradW1(wg, assign, x[r0+i], g[0])
				case 2:
					gradW2(wg, assign, x[r0+i], x[r1+i], g[0], g[1])
				case 3:
					gradW3(wg, assign, x[r0+i], x[r1+i], x[r2+i], g[0], g[1], g[2])
				case 4:
					k.gradW4(wg, assign, x[r0+i], x[r1+i], x[r2+i], x[r3+i], g[0], g[1], g[2], g[3])
				}
				continue
			}
			w := d.W.W[i*width : (i+1)*width]
			switch nb {
			case 1:
				gi[r0+i] = backward1(w, wg, assign, x[r0+i], g[0])
			case 2:
				gi[r0+i], gi[r1+i] = backward2(w, wg, assign, x[r0+i], x[r1+i], g[0], g[1])
			case 3:
				gi[r0+i], gi[r1+i], gi[r2+i] = backward3(w, wg, assign, x[r0+i], x[r1+i], x[r2+i], g[0], g[1], g[2])
			case 4:
				gi[r0+i], gi[r1+i], gi[r2+i], gi[r3+i] = k.backward4(w, wg, assign, x[r0+i], x[r1+i], x[r2+i], x[r3+i], g[0], g[1], g[2], g[3])
			}
		}
	}
}

// backward1…backward4 handle one input's row of W for one to four batch
// rows: wg[j] += x_r * g_r[j] for r ascending, and s_r = Σ_j w[j] * g_r[j]
// returned per row. With assign the sum starts from +0 instead of wg[j],
// which is never read: bit for bit what accumulating into a cleared wg
// gives (0 + x*g, so a -0 product still lands as +0) for one write of ∂W
// in place of a clear, a read and a write.

func backward1(w, wg []float64, assign bool, x0 float64, g0 []float64) (s0 float64) {
	wg, g0 = wg[:len(w)], g0[:len(w)]
	for j, wv := range w {
		gv0 := g0[j]
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * gv0
		wg[j] = acc
		s0 += wv * gv0
	}
	return s0
}

func backward2(w, wg []float64, assign bool, x0, x1 float64, g0, g1 []float64) (s0, s1 float64) {
	wg, g0, g1 = wg[:len(w)], g0[:len(w)], g1[:len(w)]
	for j, wv := range w {
		gv0, gv1 := g0[j], g1[j]
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * gv0
		acc += x1 * gv1
		wg[j] = acc
		s0 += wv * gv0
		s1 += wv * gv1
	}
	return s0, s1
}

func backward3(w, wg []float64, assign bool, x0, x1, x2 float64, g0, g1, g2 []float64) (s0, s1, s2 float64) {
	wg, g0, g1, g2 = wg[:len(w)], g0[:len(w)], g1[:len(w)], g2[:len(w)]
	for j, wv := range w {
		gv0, gv1, gv2 := g0[j], g1[j], g2[j]
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * gv0
		acc += x1 * gv1
		acc += x2 * gv2
		wg[j] = acc
		s0 += wv * gv0
		s1 += wv * gv1
		s2 += wv * gv2
	}
	return s0, s1, s2
}

func backward4(w, wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) (s0, s1, s2, s3 float64) {
	wg, g0, g1, g2, g3 = wg[:len(w)], g0[:len(w)], g1[:len(w)], g2[:len(w)], g3[:len(w)]
	for j, wv := range w {
		gv0, gv1, gv2, gv3 := g0[j], g1[j], g2[j], g3[j]
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * gv0
		acc += x1 * gv1
		acc += x2 * gv2
		acc += x3 * gv3
		wg[j] = acc
		s0 += wv * gv0
		s1 += wv * gv1
		s2 += wv * gv2
		s3 += wv * gv3
	}
	return s0, s1, s2, s3
}

// gradW1…gradW4 are the ∂W halves of backward1…backward4 alone: the same
// sums into wg in the same order, no w and no ∂x.

func gradW1(wg []float64, assign bool, x0 float64, g0 []float64) {
	g0 = g0[:len(wg)]
	for j := range wg {
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * g0[j]
		wg[j] = acc
	}
}

func gradW2(wg []float64, assign bool, x0, x1 float64, g0, g1 []float64) {
	g0, g1 = g0[:len(wg)], g1[:len(wg)]
	for j := range wg {
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * g0[j]
		acc += x1 * g1[j]
		wg[j] = acc
	}
}

func gradW3(wg []float64, assign bool, x0, x1, x2 float64, g0, g1, g2 []float64) {
	g0, g1, g2 = g0[:len(wg)], g1[:len(wg)], g2[:len(wg)]
	for j := range wg {
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * g0[j]
		acc += x1 * g1[j]
		acc += x2 * g2[j]
		wg[j] = acc
	}
}

func gradW4(wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) {
	g0, g1, g2, g3 = g0[:len(wg)], g1[:len(wg)], g2[:len(wg)], g3[:len(wg)]
	for j := range wg {
		acc := 0.0
		if !assign {
			acc = wg[j]
		}
		acc += x0 * g0[j]
		acc += x1 * g1[j]
		acc += x2 * g2[j]
		acc += x3 * g3[j]
		wg[j] = acc
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Embedding maps integer token ids (encoded as float64 in the input
// tensor) of shape [B, T] to dense vectors of shape [B, T, E].
type Embedding struct {
	Vocab, Dim int
	W          *Param // shape [vocab, dim]

	ids []int
	bt  int // batch * time of the cached forward
	t   int

	out, gradIn *Tensor
}

// NewEmbedding creates an embedding table with small random init.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Vocab: vocab, Dim: dim, W: newParam(name+".W", vocab, dim)}
	initUniform(rng, e.W.W, vocab, dim)
	return e
}

// Name implements Layer.
func (e *Embedding) Name() string { return e.W.Name[:len(e.W.Name)-2] }

// Forward implements Layer.
func (e *Embedding) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("nn: embedding: input shape %v, want [B, T]", x.Shape))
	}
	batch, T := x.Shape[0], x.Shape[1]
	e.bt = batch * T
	e.t = T
	e.ids = e.ids[:0]
	out := ensure(&e.out, batch, T, e.Dim)
	for n := 0; n < batch*T; n++ {
		id := int(x.Data[n])
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: embedding: token id %d out of vocab %d", id, e.Vocab))
		}
		e.ids = append(e.ids, id)
		copy(out.Data[n*e.Dim:(n+1)*e.Dim], e.W.W[id*e.Dim:(id+1)*e.Dim])
	}
	return out
}

// Backward implements Layer. The returned gradient w.r.t. the integer
// input is zero (ids are not differentiable) but has the input's shape so
// Sequential chaining still works.
func (e *Embedding) Backward(gradOut *Tensor) *Tensor {
	for n, id := range e.ids {
		g := gradOut.Data[n*e.Dim : (n+1)*e.Dim]
		wg := e.W.G[id*e.Dim : (id+1)*e.Dim]
		for j, gv := range g {
			wg[j] += gv
		}
	}
	return ensure(&e.gradIn, e.bt/e.t, e.t)
}

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// TimeDistributed applies a Dense layer independently at every timestep of
// a [B, T, in] tensor, producing [B, T, out] — the output projection of
// the language model.
type TimeDistributed struct {
	Inner *Dense

	b, t                     int
	flatView, outView        *Tensor
	gradFlatView, gradInView *Tensor
}

// NewTimeDistributed wraps dense.
func NewTimeDistributed(inner *Dense) *TimeDistributed {
	return &TimeDistributed{Inner: inner}
}

// Name implements Layer.
func (td *TimeDistributed) Name() string { return "td-" + td.Inner.Name() }

// Forward implements Layer.
func (td *TimeDistributed) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: time-distributed: input shape %v, want [B, T, in]", x.Shape))
	}
	td.b, td.t = x.Shape[0], x.Shape[1]
	flat := viewInto(&td.flatView, x, td.b*td.t, x.Shape[2])
	out := td.Inner.Forward(flat)
	return viewInto(&td.outView, out, td.b, td.t, td.Inner.Out)
}

// Backward implements Layer.
func (td *TimeDistributed) Backward(gradOut *Tensor) *Tensor {
	flat := viewInto(&td.gradFlatView, gradOut, td.b*td.t, td.Inner.Out)
	gradIn := td.Inner.Backward(flat)
	return viewInto(&td.gradInView, gradIn, td.b, td.t, td.Inner.In)
}

// Params implements Layer.
func (td *TimeDistributed) Params() []*Param { return td.Inner.Params() }
