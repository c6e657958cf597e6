package compress

import (
	"repro/internal/stats"
	"repro/internal/tensor"
)

// RedSync implements the threshold search of RedSync (Fang et al., JPDC
// 2019): the threshold is parameterised as
//
//	eta = mean(|g|) + ratio * (max(|g|) - mean(|g|)),
//
// and ratio is moved by a bounded binary search until the selected count
// lands in the acceptance band [k, 2k] or the budget of 10 iterations
// runs out, in which case whatever the search landed on is used.
//
// The mean-to-max interpolation is a poor parameterisation for
// heavy-tailed gradients — a single outlier stretches the search range so
// that most ratios select (almost) nothing — which is exactly the
// under-estimation and high variance the paper reports (Figures 1c, 3c,
// 4b).
type RedSync struct{}

// RedSync's search: redsyncMaxIters bounds the binary search (a
// paper-style small budget), and redsyncAccept widens the acceptance band
// to [k, redsyncAccept*k], trading estimation quality for fewer passes.
const (
	redsyncMaxIters         = 10
	redsyncAccept   float64 = 2
)

// NewRedSync creates a RedSync compressor.
func NewRedSync() *RedSync { return &RedSync{} }

// Name implements Compressor.
func (*RedSync) Name() string { return "redsync" }

// CompressInto implements Compressor.
//
//sidco:hotpath
func (*RedSync) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		return err
	}
	d := len(g)
	k := TargetK(d, delta)

	mean := stats.MeanAbs(g)
	max := stats.MaxAbs(g)
	if max <= mean {
		// Degenerate (constant-magnitude) vector: everything ties.
		dst.Reset(d)
		dst.Idx, dst.Vals = tensor.FilterAboveThreshold(g, mean, dst.Idx, dst.Vals)
		return nil
	}

	lo, hi := 0.0, 1.0
	eta := mean + float64(0.5*(max-mean))
	for iter := 0; iter < redsyncMaxIters; iter++ {
		ratio := (lo + hi) / 2
		eta = mean + float64(ratio*(max-mean))
		nnz := tensor.CountAboveThreshold(g, eta)
		if float64(nnz) >= float64(k) && float64(nnz) <= redsyncAccept*float64(k) {
			break
		}
		if nnz > k {
			lo = ratio // too many selected: raise the threshold
		} else {
			hi = ratio // too few: lower it
		}
	}
	dst.Reset(d)
	dst.Idx, dst.Vals = tensor.FilterAboveThreshold(g, eta, dst.Idx, dst.Vals)
	return nil
}
