package dist

import (
	"fmt"

	"repro/internal/tensor"
)

// ExchangeInput is one worker's contribution to a gradient exchange:
// the dense local gradient is always present, and Sparse carries the
// compressed selection when a compressor ran.
type ExchangeInput struct {
	// Worker is the contributing worker's id; Trainer fills inputs in
	// worker-index order, so ins[i].Worker == i.
	Worker int
	// Dense is the worker's local (clipped) gradient of model dimension.
	Dense []float64
	// Sparse is the compressor's selection, nil on the dense path.
	Sparse *tensor.Sparse
}

// GradientExchange is the strategy that turns per-worker gradients into
// the aggregated mean the optimizer applies. Implementations must leave
// the mean of the contributions in agg and must reduce deterministically:
// two exchanges give the same bits only when they add in the same order
// and round the same way, which is why cluster.Reference, not always this
// package's worker-order reducer, names a deployment's reference.
//
// After a non-nil error agg is unspecified: an exchange that fails part
// way through a round (cluster.Engine, a Node that lost a peer) may leave
// it partially written, and is not required to clean up. Callers must not
// read or apply it; Trainer.Step returns the error with the weights and
// the step counter untouched.
//
// The default is the in-process reducer below; internal/cluster provides
// message-passing implementations that ship encoded buffers through real
// transports. All three also offer the optional SparseExchange form, and
// cluster.Node the ApplyExchange form.
type GradientExchange interface {
	Exchange(step int, ins []ExchangeInput, agg []float64) error
}

// SparseExchange is the optional form of GradientExchange for rounds whose
// aggregate is sparse: the mean of N compressed selections has at most N*k
// non-zeros, and the sparse collectives build it as one merged vector
// before anything dense exists. ExchangeSparse runs such a round and leaves
// that vector — ascending indices, exact-zero sums dropped, the same value
// bit for bit that Exchange would leave in agg at each index — in the
// caller-owned mean, touching nothing of the model's dimension. A round
// that is not sparse (an input without a selection, a ring all-reduce) is
// declined: it returns false before any byte moves and the caller runs
// Exchange. Retries, renegotiation and the after-error contract are
// Exchange's: after a non-nil error mean is unspecified.
//
// Trainer takes this route when its optimizer is an nn.SparseStepper
// (nn.SGD) and every worker compresses; a wrapper that forwards only
// Exchange, or an optimizer without StepSparse, simply keeps the dense
// route, with the same results.
type SparseExchange interface {
	GradientExchange
	ExchangeSparse(step int, ins []ExchangeInput, mean *tensor.Sparse) (sparse bool, err error)
}

// ApplyExchange is the optional form of GradientExchange for a dense ring
// all-reduce, whose mean ends the round in chunks: each lands where the
// schedule last wrote or received it. ExchangeApply runs such a round and
// hands apply every chunk where it sits — disjoint spans mean[0:n] of the
// mean's elements [off, off+n), together covering the model's dimension,
// each the same value bit for bit that Exchange would leave in agg there —
// instead of first gathering them into agg. agg is the round's working
// storage (the ring reduces in it), unspecified afterwards; a span may
// alias it or a received frame, and is valid only during its apply call.
//
// apply runs only once the round has received its last byte, so an attempt
// that fails, and is retried or returned, has applied nothing. A round
// that is not a ring is declined: it returns false before any byte moves
// and the caller runs Exchange. Retries, renegotiation and the error
// contract are Exchange's.
//
// Trainer takes this route whenever the exchange offers it, handing each
// span to nn.Optimizer.StepSpan; an exchange that does not (InProcess,
// cluster.Engine, a wrapper that forwards only Exchange) keeps Exchange
// and StepFlat, with the same weights.
type ApplyExchange interface {
	GradientExchange
	ExchangeApply(step int, ins []ExchangeInput, agg []float64, apply func(off int, mean []float64)) (applied bool, err error)
}

// InProcess is the shared-memory reducer: sparse contributions are
// scatter-added (O(sum of nnz), no per-worker densify) and dense ones
// added, in worker-index order, then scaled to the mean.
type InProcess struct{}

// Exchange implements GradientExchange.
func (InProcess) Exchange(step int, ins []ExchangeInput, agg []float64) error {
	if len(ins) == 0 {
		return fmt.Errorf("dist: exchange with no inputs")
	}
	tensor.Zero(agg)
	for _, in := range ins {
		if in.Sparse != nil {
			in.Sparse.AddTo(agg)
		} else {
			tensor.Add(in.Dense, agg)
		}
	}
	tensor.Scale(1/float64(len(ins)), agg)
	return nil
}

// ExchangeSparse implements SparseExchange: when every input carries a
// selection, their mean is merged in worker-index order
// (tensor.MeanSparseInto: per index the operation sequence of Exchange) at
// O(sum of nnz), with no pass over the model's dimension.
func (InProcess) ExchangeSparse(step int, ins []ExchangeInput, mean *tensor.Sparse) (bool, error) {
	if len(ins) == 0 {
		return false, fmt.Errorf("dist: exchange with no inputs")
	}
	// MeanSparseInto wants the parts side by side; a few dozen workers'
	// headers fit on the stack.
	var stack [64]tensor.Sparse
	parts := stack[:0]
	if len(ins) > len(stack) {
		parts = make([]tensor.Sparse, 0, len(ins))
	}
	for _, in := range ins {
		if in.Sparse == nil {
			return false, nil
		}
		parts = append(parts, *in.Sparse)
	}
	tensor.MeanSparseInto(mean, parts)
	return true, nil
}
