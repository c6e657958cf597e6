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
// the mean of the contributions in agg (zeroing it first) and must reduce
// deterministically — the Trainer's bit-reproducibility guarantee extends
// only to exchanges that sum contributions in worker-index order.
//
// After a non-nil error agg is unspecified: an exchange that fails part
// way through a round (cluster.Engine, a Node that lost a peer) may leave
// it partially written, and is not required to clean up. Callers must not
// read or apply it; Trainer.Step returns the error with the weights and
// the step counter untouched.
//
// The default is the in-process reducer below; internal/cluster provides
// message-passing implementations that ship encoded buffers through real
// transports.
type GradientExchange interface {
	Exchange(step int, ins []ExchangeInput, agg []float64) error
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
