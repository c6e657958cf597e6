package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Dense is a fully-connected layer: y = x W + b, with x of shape [B, in]
// and y of shape [B, out].
type Dense struct {
	In, Out int
	W       *Param // shape [in, out]
	B       *Param // shape [out]

	x           *Tensor   // cached input
	out, gradIn *Tensor   // reused output / input-gradient storage
	part        []float64 // four rows of partial sums, for a G added into (gradAdd)
	// A four-row backward call's x and ∂x (denseKernels.backwardRows4),
	// here and not on the stack: a kernel called through a func value
	// makes its pointer arguments escape.
	xs, dx [denseRows][denseBlock]float64
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
	// cleared one (see BindGrads), or adds its whole gradient into G once
	// (BindGradsAdding).
	d.W.whole, d.B.whole = true, true
	initUniform(rng, d.W.W, in, out)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.W.Name[:len(d.W.Name)-2] }

// denseBlock is how many batch rows one kernel call covers. Forward and
// Backward walk the batch in blocks of up to this many rows so that W (and
// ∂W in Backward) is streamed once per block rather than once per row, and
// so that Backward's per-row ∂x dot products — serial add chains — run
// side by side. Backward's full-block kernels also take four rows of W a
// call (denseRows), so the block of ∂y is loaded once for four rows and
// their sixteen ∂x chains run side by side: four rows i, i+s, i+2s, i+3s,
// at s = 1, or at s = 4096/Out — one row from each of four consecutive
// 4096-element blocks of the flat gradient — where Backward also sums |∂W|
// block by block (BindGradsAdding with partials). Every sum keeps the
// operand order of the row-at-a-time loops (over i in Forward, over b for
// ∂W and ∂b, over j for ∂x), so the results are bit-identical to them:
// TestDenseKernelsMatchRowAtATime holds those loops as the reference.
const denseBlock = 4

// denseRows is how many rows of W one full-block Backward kernel call
// takes.
const denseRows = 4

// denseKernels are the kernels that have an AVX2 body (dense_amd64.s),
// each with its Go twin's signature: the forward's axpys over one row of W
// and the backward's over four rows of W and a full block of ∂y.
//
// backwardRows4 takes rows k = 0…3 of W at w[k*ws:], of the ∂W rows it
// stores at dst[k*ds:] and of their partial sums at from[k*fs:] (from nil:
// +0), each len(g)/4 wide; x[k][r] is x of batch row r at row k's input,
// and g the four rows of ∂y, one after the other. Row k's ∂W is what
// backward4 stores; dx[k][r] is its ∂x of batch row r; and with abs not
// nil abs[k] += |∂W| of every value stored in row k, in index order.
// gradWRows4 is the same without w and ∂x.
type denseKernels struct {
	axpy1         func(w []float64, x0 float64, o0 []float64)
	axpy2         func(w []float64, x0, x1 float64, o0, o1 []float64)
	axpy3         func(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64)
	axpy4         func(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64)
	gradWRows4    func(dst, from []float64, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64)
	backwardRows4 func(w, dst, from []float64, ws, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64, dx *[4][4]float64)
}

// goKernels are the Go loops below: the path on a machine without AVX2 and
// the oracle the AVX2 bodies are tested against. Called through these
// values they are never inlined, so each is one compiled body with one
// operand order (package doc).
var goKernels = denseKernels{axpy1, axpy2, axpy3, axpy4, gradWRows4, backwardRows4}

// kernels is what Dense calls: goKernels, or the AVX2 bodies when
// dense_amd64.go's init finds the CPU and OS support them.
var kernels = &goKernels

// WithGoKernels runs f with Dense on its Go loops, the path of a machine
// without AVX2, and restores init's choice after. No model may be running
// beside it.
//
//sidco:oracle the kernel-path switch trainer-level bit-identity tests run both paths with
func WithGoKernels(f func()) {
	chosen := kernels
	defer func() { kernels = chosen }()
	kernels = &goKernels
	f()
}

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
		o0[j] += float64(x0 * wv)
	}
}

func axpy2(w []float64, x0, x1 float64, o0, o1 []float64) {
	o0, o1 = o0[:len(w)], o1[:len(w)]
	for j, wv := range w {
		o0[j] += float64(x0 * wv)
		o1[j] += float64(x1 * wv)
	}
}

func axpy3(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64) {
	o0, o1, o2 = o0[:len(w)], o1[:len(w)], o2[:len(w)]
	for j, wv := range w {
		o0[j] += float64(x0 * wv)
		o1[j] += float64(x1 * wv)
		o2[j] += float64(x2 * wv)
	}
}

func axpy4(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64) {
	o0, o1, o2, o3 = o0[:len(w)], o1[:len(w)], o2[:len(w)], o3[:len(w)]
	for j, wv := range w {
		o0[j] += float64(x0 * wv)
		o1[j] += float64(x1 * wv)
		o2[j] += float64(x2 * wv)
		o3[j] += float64(x3 * wv)
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
// per-row ∂x into gi unless it is nil. A parameter's G is written as its
// bind says (takeMode): accumulated into, assigned (unwritten: the first
// block sums from +0, the rest accumulate), or added into (the sum from +0
// over every block, in block order, then G = G + sum once). The mode is
// taken here, so a second Backward before the next bind — TimeDistributed,
// a layer used twice — accumulates.
//
// The rows of W go four to a call (denseRows), each call taking the
// batch's blocks in order, so its rows are complete before the next call:
// an added-into G keeps the four rows' partial sums in d.part between
// blocks. A call takes four consecutive rows, but where the bind carries
// block sums (sumRows): there it takes one row from each of four
// consecutive sumBlocks, and its stores for the batch's last block add
// |∂W| into those blocks' chains.
func (d *Dense) backward(gradOut *Tensor, gi []float64) {
	batch := d.x.Shape[0]
	modeW := d.W.takeMode()
	d.backwardBias(gradOut.Data, batch)
	if modeW != gradAdd && d.W.sums != nil {
		// A second pass into a span whose chains the first one carried.
		d.W.sums.Forget(d.W.off, d.W.off+len(d.W.G))
	}
	if batch == 0 {
		// No block will write ∂W: an empty batch's gradient is zero.
		writeZero(d.W.G, modeW)
		return
	}
	p := backwardPass{
		k: kernels, x: d.x.Data, gd: gradOut.Data, gi: gi,
		w: d.W.W, wg: d.W.G, batch: batch, in: d.In, width: d.Out, mode: modeW,
		xs: &d.xs, dx: &d.dx,
	}
	if modeW == gradAdd && batch > denseBlock {
		// Where the rows' partial sums live between blocks: G itself, but
		// for a G added into over more than one block.
		p.part = scratch(&d.part, denseRows*d.Out)
	}
	lo, hi, first := d.In, d.In, 0
	if modeW == gradAdd && d.W.sums != nil {
		lo, hi, first = d.sumRows()
	}
	p.consecutive(0, lo)
	for b := first; lo < hi; b += denseRows {
		stride := sumBlock / d.Out
		chains := d.W.sums.Quad(b)
		for i := lo; i < lo+stride; i++ {
			p.rows(i, stride, denseRows, chains)
		}
		lo += denseRows * stride
	}
	p.consecutive(hi, d.In)
}

// sumBlock is the block of stats' Σ|v| chains (stats.AbsPartials).
const sumBlock = stats.SumBlock

// sumRows finds the rows of W whose sums backward carries: [lo, hi), from
// the first whole sumBlock of W's span in the flat vector — block first —
// through the last whole group of four. A layer qualifies when Out divides
// sumBlock and its span starts at a multiple of Out, so that every whole
// block in it is whole rows; then lo < hi. Otherwise lo == hi.
func (d *Dense) sumRows() (lo, hi, first int) {
	width, off := d.Out, d.W.off
	if width == 0 || sumBlock%width != 0 || off%width != 0 {
		return d.In, d.In, 0
	}
	first = (off + sumBlock - 1) / sumBlock
	groups := ((off+len(d.W.G))/sumBlock - first) / denseRows
	if groups <= 0 {
		return d.In, d.In, 0
	}
	lo = (first*sumBlock - off) / width
	return lo, lo + groups*denseRows*sumBlock/width, first
}

// backwardPass is one Backward's operands, shared by its calls over rows
// of W.
type backwardPass struct {
	k                *denseKernels
	x, gd, gi        []float64 // gi nil: no ∂x
	w, wg, part      []float64 // part nil: the partial sums live in wg
	batch, in, width int
	mode             gradMode
	xs, dx           *[denseRows][denseBlock]float64 // the kernels' x and ∂x
}

// consecutive runs rows [lo, hi) of W, four consecutive rows a call, the
// last hi-lo mod 4 together.
func (p *backwardPass) consecutive(lo, hi int) {
	for i := lo; i < hi; i += denseRows {
		p.rows(i, 1, min(denseRows, hi-i), nil)
	}
}

// rows runs the n rows i, i+s, … of W (n ≤ 4) over every block of the
// batch: four rows and four batch rows through the four-row kernels, the
// rest through the Go loops, row by row. With abs not nil (n is 4), the
// last block's stores add |∂W| into abs[k], row k's chain.
func (p *backwardPass) rows(i, s, n int, abs *[4]float64) {
	width, in := p.width, p.in
	ws := s * width
	wg := p.wg[i*width:]
	var w []float64
	if p.gi != nil {
		w = p.w[i*width:]
	}
	part, ps := wg, ws
	if p.part != nil {
		part, ps = p.part, width
	}
	for b0 := 0; b0 < p.batch; b0 += denseBlock {
		nb := min(denseBlock, p.batch-b0)
		dst, ds, from, fs, add := part, ps, part, ps, false
		if b0 == 0 && p.mode != gradAccumulate {
			from = nil
		}
		last := b0+nb == p.batch
		if last {
			dst, ds, add = wg, ws, p.mode == gradAdd
		}
		chains := abs
		if !last {
			chains = nil
		}
		if nb < denseBlock || n < denseRows {
			for k := range n {
				var fk []float64
				if from != nil {
					fk = from[k*fs : k*fs+width]
				}
				var wk []float64
				if w != nil {
					wk = w[k*ws : k*ws+width]
				}
				p.block(wk, dst[k*ds:k*ds+width], fk, add, i+k*s, b0, nb)
			}
			if chains != nil {
				absChains4(chains, dst, ds, width)
			}
			continue
		}
		xs, dx := p.xs, p.dx
		for k := range denseRows {
			for r := range denseBlock {
				xs[k][r] = p.x[(b0+r)*in+i+k*s]
			}
		}
		g := p.gd[b0*width : (b0+denseBlock)*width]
		if w == nil {
			p.k.gradWRows4(dst, from, ds, fs, add, xs, g, chains)
			continue
		}
		p.k.backwardRows4(w, dst, from, ws, ds, fs, add, xs, g, chains, dx)
		for k := range denseRows {
			for r := range denseBlock {
				p.gi[(b0+r)*in+i+k*s] = dx[k][r]
			}
		}
	}
}

// block runs row i of W (w nil: no ∂x) over the nb rows of the batch from
// b0 through the Go loops: ∂W into dst, from from (nil: +0), added into
// dst with add; ∂x into gi.
func (p *backwardPass) block(w, dst, from []float64, add bool, i, b0, nb int) {
	x, gd, gi, in, width := p.x, p.gd, p.gi, p.in, p.width
	var g [denseBlock][]float64
	for r := 0; r < nb; r++ {
		g[r] = gd[(b0+r)*width : (b0+r+1)*width]
	}
	r0, r1, r2, r3 := b0*in+i, (b0+1)*in+i, (b0+2)*in+i, (b0+3)*in+i
	if w == nil {
		switch nb {
		case 1:
			gradW1(dst, from, add, x[r0], g[0])
		case 2:
			gradW2(dst, from, add, x[r0], x[r1], g[0], g[1])
		case 3:
			gradW3(dst, from, add, x[r0], x[r1], x[r2], g[0], g[1], g[2])
		case 4:
			gradW4(dst, from, add, x[r0], x[r1], x[r2], x[r3], g[0], g[1], g[2], g[3])
		}
		return
	}
	switch nb {
	case 1:
		gi[r0] = backward1(w, dst, from, add, x[r0], g[0])
	case 2:
		gi[r0], gi[r1] = backward2(w, dst, from, add, x[r0], x[r1], g[0], g[1])
	case 3:
		gi[r0], gi[r1], gi[r2] = backward3(w, dst, from, add, x[r0], x[r1], x[r2], g[0], g[1], g[2])
	case 4:
		gi[r0], gi[r1], gi[r2], gi[r3] = backward4(w, dst, from, add, x[r0], x[r1], x[r2], x[r3], g[0], g[1], g[2], g[3])
	}
}

// backwardBias writes ∂b, the sum of the batch's rows of ∂y, into B.G as
// its bind says: accumulated row by row, assigned (the first row from +0),
// or summed from +0 in d.part and then added once.
func (d *Dense) backwardBias(gd []float64, batch int) {
	width := d.Out
	mode := d.B.takeMode()
	if batch == 0 {
		writeZero(d.B.G, mode)
		return
	}
	bg := d.B.G[:width]
	sum := bg
	if mode == gradAdd {
		sum = scratch(&d.part, width)
	}
	for r := 0; r < batch; r++ {
		g := gd[r*width : (r+1)*width]
		if r == 0 && mode != gradAccumulate {
			for j, gv := range g {
				sum[j] = 0 + gv // the +0 a cleared G would have supplied: -0 lands as +0
			}
			continue
		}
		for j, gv := range g {
			sum[j] += gv
		}
	}
	if mode == gradAdd {
		for j, s := range sum {
			bg[j] = bg[j] + s
		}
	}
}

// writeZero writes a zero gradient into g as mode says: nothing to
// accumulate, +0 to assign, +0 to add (a -0 in g becomes +0, as g + 0
// rounds it).
func writeZero(g []float64, mode gradMode) {
	switch mode {
	case gradAssign:
		clear(g)
	case gradAdd:
		for j := range g {
			g[j] += 0
		}
	}
}

// backward1…backward4 handle one input's row of W for one to four batch
// rows. Per j they sum acc = from[j] (or +0 when from is nil) plus x_r *
// g_r[j] for r ascending, and store acc — or, with add, wg[j] + acc — in
// wg[j]; and they return s_r = Σ_j w[j] * g_r[j] per row. from is wg to
// accumulate, nil to assign — bit for bit what accumulating into a cleared
// wg gives (0 + x*g, so a -0 product still lands as +0) for one write of
// ∂W in place of a clear, a read and a write — and nil or a row of partial
// sums to add.

func backward1(w, wg, from []float64, add bool, x0 float64, g0 []float64) (s0 float64) {
	wg, g0 = wg[:len(w)], g0[:len(w)]
	if from != nil {
		from = from[:len(w)]
	}
	for j, wv := range w {
		gv0 := g0[j]
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * gv0)
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
		s0 += float64(wv * gv0)
	}
	return s0
}

func backward2(w, wg, from []float64, add bool, x0, x1 float64, g0, g1 []float64) (s0, s1 float64) {
	wg, g0, g1 = wg[:len(w)], g0[:len(w)], g1[:len(w)]
	if from != nil {
		from = from[:len(w)]
	}
	for j, wv := range w {
		gv0, gv1 := g0[j], g1[j]
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * gv0)
		acc += float64(x1 * gv1)
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
		s0 += float64(wv * gv0)
		s1 += float64(wv * gv1)
	}
	return s0, s1
}

func backward3(w, wg, from []float64, add bool, x0, x1, x2 float64, g0, g1, g2 []float64) (s0, s1, s2 float64) {
	wg, g0, g1, g2 = wg[:len(w)], g0[:len(w)], g1[:len(w)], g2[:len(w)]
	if from != nil {
		from = from[:len(w)]
	}
	for j, wv := range w {
		gv0, gv1, gv2 := g0[j], g1[j], g2[j]
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * gv0)
		acc += float64(x1 * gv1)
		acc += float64(x2 * gv2)
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
		s0 += float64(wv * gv0)
		s1 += float64(wv * gv1)
		s2 += float64(wv * gv2)
	}
	return s0, s1, s2
}

func backward4(w, wg, from []float64, add bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) (s0, s1, s2, s3 float64) {
	wg, g0, g1, g2, g3 = wg[:len(w)], g0[:len(w)], g1[:len(w)], g2[:len(w)], g3[:len(w)]
	if from != nil {
		from = from[:len(w)]
	}
	for j, wv := range w {
		gv0, gv1, gv2, gv3 := g0[j], g1[j], g2[j], g3[j]
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * gv0)
		acc += float64(x1 * gv1)
		acc += float64(x2 * gv2)
		acc += float64(x3 * gv3)
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
		s0 += float64(wv * gv0)
		s1 += float64(wv * gv1)
		s2 += float64(wv * gv2)
		s3 += float64(wv * gv3)
	}
	return s0, s1, s2, s3
}

// gradW1…gradW4 are the ∂W halves of backward1…backward4 alone: the same
// sums into wg in the same order, no w and no ∂x.

func gradW1(wg, from []float64, add bool, x0 float64, g0 []float64) {
	g0 = g0[:len(wg)]
	if from != nil {
		from = from[:len(wg)]
	}
	for j := range wg {
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * g0[j])
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
	}
}

func gradW2(wg, from []float64, add bool, x0, x1 float64, g0, g1 []float64) {
	g0, g1 = g0[:len(wg)], g1[:len(wg)]
	if from != nil {
		from = from[:len(wg)]
	}
	for j := range wg {
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * g0[j])
		acc += float64(x1 * g1[j])
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
	}
}

func gradW3(wg, from []float64, add bool, x0, x1, x2 float64, g0, g1, g2 []float64) {
	g0, g1, g2 = g0[:len(wg)], g1[:len(wg)], g2[:len(wg)]
	if from != nil {
		from = from[:len(wg)]
	}
	for j := range wg {
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * g0[j])
		acc += float64(x1 * g1[j])
		acc += float64(x2 * g2[j])
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
	}
}

func gradW4(wg, from []float64, add bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) {
	g0, g1, g2, g3 = g0[:len(wg)], g1[:len(wg)], g2[:len(wg)], g3[:len(wg)]
	if from != nil {
		from = from[:len(wg)]
	}
	for j := range wg {
		acc := 0.0
		if from != nil {
			acc = from[j]
		}
		acc += float64(x0 * g0[j])
		acc += float64(x1 * g1[j])
		acc += float64(x2 * g2[j])
		acc += float64(x3 * g3[j])
		if add {
			acc = wg[j] + acc
		}
		wg[j] = acc
	}
}

// backwardRows4 and gradWRows4 are the Go twins of the four-row kernels
// (denseKernels): backward4 and gradW4 on each of the four rows, then the
// rows' stores into their |∂W| chains.

func backwardRows4(w, dst, from []float64, ws, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64, dx *[4][4]float64) {
	n := len(g) / 4
	g0, g1, g2, g3 := g[:n], g[n:2*n], g[2*n:3*n], g[3*n:4*n]
	for k := range 4 {
		var f []float64
		if from != nil {
			f = from[k*fs : k*fs+n]
		}
		wg, xk := dst[k*ds:k*ds+n], &x[k]
		dx[k][0], dx[k][1], dx[k][2], dx[k][3] = backward4(w[k*ws:k*ws+n], wg, f, add, xk[0], xk[1], xk[2], xk[3], g0, g1, g2, g3)
	}
	if abs != nil {
		absChains4(abs, dst, ds, n)
	}
}

func gradWRows4(dst, from []float64, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64) {
	n := len(g) / 4
	g0, g1, g2, g3 := g[:n], g[n:2*n], g[2*n:3*n], g[3*n:4*n]
	for k := range 4 {
		var f []float64
		if from != nil {
			f = from[k*fs : k*fs+n]
		}
		wg, xk := dst[k*ds:k*ds+n], &x[k]
		gradW4(wg, f, add, xk[0], xk[1], xk[2], xk[3], g0, g1, g2, g3)
	}
	if abs != nil {
		absChains4(abs, dst, ds, n)
	}
}

// absChains4 adds |v| of rows k = 0…3 of dst, ds apart and n wide, into
// abs[k], in index order: four sumBlocks' chains side by side.
func absChains4(abs *[4]float64, dst []float64, ds, n int) {
	r0, r1, r2, r3 := dst[:n], dst[ds:ds+n], dst[2*ds:2*ds+n], dst[3*ds:3*ds+n]
	s0, s1, s2, s3 := abs[0], abs[1], abs[2], abs[3]
	for j := range r0 {
		s0 += math.Abs(r0[j])
		s1 += math.Abs(r1[j])
		s2 += math.Abs(r2[j])
		s3 += math.Abs(r3[j])
	}
	abs[0], abs[1], abs[2], abs[3] = s0, s1, s2, s3
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
