package nn

import "math"

// Optimizer applies parameter updates from accumulated gradients. An
// optimizer whose update leaves a weight alone where the gradient is zero
// may also implement SparseStepper, the optional form for an aggregate that
// arrives as a few (index, value) pairs.
type Optimizer interface {
	// Name identifies the optimizer.
	Name() string
	// Step applies one update using each parameter's G and zeroes it.
	Step(params []*Param)
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
	// CanStepSparse reports whether StepSparse is exact under the
	// optimizer's current settings.
	CanStepSparse() bool
	// StepSparse applies one update from the gradient whose element idx[i]
	// of the flat parameter vector is vals[i] and every other element zero.
	// idx is strictly ascending (the tensor.Sparse invariant), so the
	// parameter spans are walked once.
	StepSparse(params []*Param, idx []int32, vals []float64)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	// LR is the learning rate.
	LR float64
	// WeightDecay is the L2 coefficient (0 to disable).
	WeightDecay float64
}

// Name implements Optimizer.
func (*SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		for i := range p.W {
			g := p.G[i] + s.WeightDecay*p.W[i]
			p.W[i] -= s.LR * g
			p.G[i] = 0
		}
	}
}

// StepFlat implements Optimizer.
func (s *SGD) StepFlat(params []*Param, flat []float64) { s.StepSpan(params, 0, flat) }

// StepSpan implements Optimizer.
func (s *SGD) StepSpan(params []*Param, off int, grad []float64) {
	start, end := 0, off+len(grad)
	for _, p := range params {
		if lo, hi := spanOf(start, len(p.W), off, end); lo < hi {
			// One reslice per parameter keeps the d-sized loop check-free.
			w := p.W[lo:hi]
			f := grad[start+lo-off:][:len(w)]
			for i := range w {
				g := f[i] + s.WeightDecay*w[i]
				w[i] -= s.LR * g
			}
		}
		start += len(p.W)
	}
}

// CanStepSparse implements SparseStepper: without weight decay an element
// whose gradient is zero is not moved (w -= LR*(0 + 0*w)), so updating the
// selected elements alone is the whole step. With decay every weight
// shrinks every step and the update is dense.
func (s *SGD) CanStepSparse() bool { return s.WeightDecay == 0 }

// StepSparse implements SparseStepper. It panics under weight decay, where
// CanStepSparse says not to call it.
func (s *SGD) StepSparse(params []*Param, idx []int32, vals []float64) {
	if s.WeightDecay != 0 {
		panic("nn: SGD.StepSparse with WeightDecay set: the update is dense, use StepFlat")
	}
	vals = vals[:len(idx)]
	at, off := 0, 0
	for _, p := range params {
		w := p.W
		end := off + len(w)
		for ; at < len(idx) && int(idx[at]) < end; at++ {
			i := int(idx[at]) - off
			// StepFlat's expression, zero decay term included: a -0
			// gradient moves the same bits there and here.
			g := vals[at] + s.WeightDecay*w[i]
			w[i] -= s.LR * g
		}
		off = end
	}
}

// Momentum is SGD with classical or Nesterov momentum — the paper's local
// optimizers (Table 1 uses Nesterov momentum SGD for the RNN and ImageNet
// benchmarks). It is not a SparseStepper and must not be made one: the
// velocity decays at every element every step (v = Mu*v + g moves w even
// where g is zero), so its update is dense by definition.
type Momentum struct {
	// LR is the learning rate.
	LR float64
	// Mu is the momentum coefficient (e.g. 0.9).
	Mu float64
	// Nesterov selects the Nesterov-accelerated update.
	Nesterov bool
	// WeightDecay is the L2 coefficient.
	WeightDecay float64

	vel map[*Param][]float64
}

// Name implements Optimizer.
func (m *Momentum) Name() string {
	if m.Nesterov {
		return "nesterov"
	}
	return "momentum"
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

// Step implements Optimizer.
func (m *Momentum) Step(params []*Param) {
	for _, p := range params {
		v := m.velocity(p)
		for i := range p.W {
			g := p.G[i] + m.WeightDecay*p.W[i]
			v[i] = m.Mu*v[i] + g
			if m.Nesterov {
				p.W[i] -= m.LR * (g + m.Mu*v[i])
			} else {
				p.W[i] -= m.LR * v[i]
			}
			p.G[i] = 0
		}
	}
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
			f := grad[start+lo-off:][:len(w)]
			v := m.velocity(p)[lo:][:len(w)]
			for i := range w {
				g := f[i] + m.WeightDecay*w[i]
				v[i] = m.Mu*v[i] + g
				if m.Nesterov {
					w[i] -= m.LR * (g + m.Mu*v[i])
				} else {
					w[i] -= m.LR * v[i]
				}
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
		sum += g * g
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
