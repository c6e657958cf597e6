package nn

import "math"

// Optimizer applies parameter updates from an aggregated gradient. An
// optimizer whose update leaves a weight alone where the gradient is zero
// may also implement SparseStepper, the optional form for an aggregate that
// arrives as a few (index, value) pairs.
type Optimizer interface {
	// StepFlat applies one update from a flat aggregated gradient (the
	// distributed path: gradients arrive from the collective, not from
	// local Backward). It is StepSpan over the whole vector.
	StepFlat(params []*Param, flat []float64)
	// StepSpan applies one update to the elements [off, off+len(grad)) of
	// the flat parameter vector from their gradient grad and leaves every
	// other weight alone. An element's update reads only that element's
	// gradient, weight and state, so disjoint spans covering the vector, in
	// any order, leave the weights bit for bit where StepFlat over their
	// concatenation does: a dense ring hands over each chunk of the mean
	// where it landed (dist.ApplyExchange).
	StepSpan(params []*Param, off int, grad []float64)
}

// spanOf returns the part of a parameter of n elements, whose first element
// sits at start of the flat vector, that the span [off, end) covers: its
// indices [lo, hi), empty when the two do not meet.
func spanOf(start, n, off, end int) (lo, hi int) {
	lo = min(max(off-start, 0), n)
	return lo, min(max(end-start, lo), n)
}

// SparseStepper is the optional form of Optimizer.StepFlat for an
// aggregated gradient that is zero outside a few elements — the merged
// mean of the workers' compressed selections. An optimizer offers it only
// where touching those elements alone leaves every weight bit-identical to
// StepFlat over the scattered vector; dist.Trainer asks once, at
// construction, and otherwise hands StepFlat a dense aggregate.
type SparseStepper interface {
	// StepSparse applies one update from the gradient whose element idx[i]
	// of the flat parameter vector is vals[i] and every other element zero.
	// idx is strictly ascending (the tensor.Sparse invariant), so the
	// parameter spans are walked once.
	StepSparse(params []*Param, idx []int32, vals []float64)
}

// SGD is plain stochastic gradient descent, w -= LR*g. It is a
// SparseStepper: a weight whose gradient is zero is not moved (w - LR*0 is
// w, -0 included), so updating the selected elements alone is the whole
// step.
type SGD struct {
	// LR is the learning rate.
	LR float64
}

// StepFlat implements Optimizer.
func (s *SGD) StepFlat(params []*Param, flat []float64) { s.StepSpan(params, 0, flat) }

// StepSpan implements Optimizer.
func (s *SGD) StepSpan(params []*Param, off int, grad []float64) {
	start, end := 0, off+len(grad)
	for _, p := range params {
		if lo, hi := spanOf(start, len(p.W), off, end); lo < hi {
			sgdStep(s.LR, p.W[lo:hi], grad[start+lo-off:][:hi-lo])
		}
		start += len(p.W)
	}
}

// streamBlock is the block length of sgdStep's four streams.
const streamBlock = 4096

// sgdStep applies SGD's update to the weights w from their gradient f,
// four consecutive streamBlocks side by side (four streams in flight
// instead of one), then the rest one element at a time. Each element's
// update reads only that element, so every form gives the same bits.
//
//sidco:hotpath
func sgdStep(lr float64, w, f []float64) {
	lo := 0
	for ; len(w)-lo >= 4*streamBlock; lo += 4 * streamBlock {
		sgdQuad(lr, w[lo:], f[lo:])
	}
	w, f = w[lo:], f[lo:len(w)]
	for i := range w {
		w[i] -= float64(lr * f[i])
	}
}

// sgdQuad is sgdStep's element loop over the first four streamBlocks of
// w and f, one named block per stream.
func sgdQuad(lr float64, w, f []float64) {
	w0, w1 := (*[streamBlock]float64)(w), (*[streamBlock]float64)(w[streamBlock:])
	w2, w3 := (*[streamBlock]float64)(w[2*streamBlock:]), (*[streamBlock]float64)(w[3*streamBlock:])
	f0, f1 := (*[streamBlock]float64)(f), (*[streamBlock]float64)(f[streamBlock:])
	f2, f3 := (*[streamBlock]float64)(f[2*streamBlock:]), (*[streamBlock]float64)(f[3*streamBlock:])
	for i := range w0 {
		w0[i] -= float64(lr * f0[i])
		w1[i] -= float64(lr * f1[i])
		w2[i] -= float64(lr * f2[i])
		w3[i] -= float64(lr * f3[i])
	}
}

// StepSparse implements SparseStepper.
func (s *SGD) StepSparse(params []*Param, idx []int32, vals []float64) {
	vals = vals[:len(idx)]
	at, off := 0, 0
	for _, p := range params {
		w := p.W
		end := off + len(w)
		for ; at < len(idx) && int(idx[at]) < end; at++ {
			w[int(idx[at])-off] -= float64(s.LR * vals[at])
		}
		off = end
	}
}

// Momentum is SGD with Nesterov momentum, the paper's local optimizer
// (Table 1 trains the RNN and ImageNet benchmarks with Nesterov momentum
// SGD): v = Mu*v + g, w -= LR*(g + Mu*v). It is not a SparseStepper and
// must not be made one: the velocity decays at every element every step
// and moves w even where g is zero, so its update is dense by definition.
type Momentum struct {
	// LR is the learning rate.
	LR float64
	// Mu is the momentum coefficient (e.g. 0.9).
	Mu float64

	vel map[*Param][]float64
}

func (m *Momentum) velocity(p *Param) []float64 {
	if m.vel == nil {
		m.vel = make(map[*Param][]float64)
	}
	v, ok := m.vel[p]
	if !ok {
		v = make([]float64, len(p.W))
		m.vel[p] = v
	}
	return v
}

// StepFlat implements Optimizer.
func (m *Momentum) StepFlat(params []*Param, flat []float64) { m.StepSpan(params, 0, flat) }

// StepSpan implements Optimizer.
func (m *Momentum) StepSpan(params []*Param, off int, grad []float64) {
	start, end := 0, off+len(grad)
	for _, p := range params {
		if lo, hi := spanOf(start, len(p.W), off, end); lo < hi {
			// One reslice per parameter keeps the d-sized loop check-free.
			w := p.W[lo:hi]
			g := grad[start+lo-off:][:len(w)]
			v := m.velocity(p)[lo:][:len(w)]
			for i := range w {
				v[i] = float64(m.Mu*v[i]) + g[i]
				w[i] -= float64(m.LR * (g[i] + float64(m.Mu*v[i])))
			}
		}
		start += len(p.W)
	}
}

// ClipFlatNorm rescales a flat gradient vector so its L2 norm is at most
// maxNorm (the RNN benchmarks train with gradient clipping). It returns
// the pre-clip norm.
func ClipFlatNorm(flat []float64, maxNorm float64) float64 {
	sum := 0.0
	for _, g := range flat {
		sum += float64(g * g)
	}
	norm := math.Sqrt(sum)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for i := range flat {
			flat[i] *= scale
		}
	}
	return norm
}
