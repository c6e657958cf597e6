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
// lands in the acceptance band [k, AcceptFactor*k] or the iteration budget
// runs out, in which case whatever the search landed on is used.
//
// The mean-to-max interpolation is a poor parameterisation for
// heavy-tailed gradients — a single outlier stretches the search range so
// that most ratios select (almost) nothing — which is exactly the
// under-estimation and high variance the paper reports (Figures 1c, 3c,
// 4b).
type RedSync struct {
	// MaxIters bounds the binary search (paper-style small budget;
	// default 10).
	MaxIters int
	// AcceptFactor widens the acceptance band to [k, AcceptFactor*k]
	// (default 2), trading estimation quality for fewer passes.
	AcceptFactor float64

	stat stats.Par
	par  tensor.Par
}

// NewRedSync creates a RedSync compressor with the default search budget.
func NewRedSync() *RedSync {
	return &RedSync{MaxIters: 10, AcceptFactor: 2}
}

// Name implements Compressor.
func (*RedSync) Name() string { return "redsync" }

// SetParallelism implements Parallelizable: the moment passes and the
// per-iteration count passes — up to MaxIters full scans of g, RedSync's
// whole cost — fan out over p goroutines with bit-identical thresholds.
func (r *RedSync) SetParallelism(p int) {
	r.stat.P = p
	r.par.P = p
}

// CompressInto implements Compressor.
//
//sidco:hotpath
func (r *RedSync) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		return err
	}
	d := len(g)
	k := TargetK(d, delta)

	mean := r.stat.MeanAbs(g)
	max := r.stat.MaxAbs(g)
	if max <= mean {
		// Degenerate (constant-magnitude) vector: everything ties.
		dst.Reset(d)
		dst.Idx, dst.Vals = r.par.FilterAbove(g, mean, dst.Idx, dst.Vals)
		return nil
	}

	lo, hi := 0.0, 1.0
	eta := mean + 0.5*(max-mean)
	for iter := 0; iter < r.MaxIters; iter++ {
		ratio := (lo + hi) / 2
		eta = mean + ratio*(max-mean)
		nnz := r.par.CountAbove(g, eta)
		if float64(nnz) >= float64(k) && float64(nnz) <= r.AcceptFactor*float64(k) {
			break
		}
		if nnz > k {
			lo = ratio // too many selected: raise the threshold
		} else {
			hi = ratio // too few: lower it
		}
	}
	dst.Reset(d)
	dst.Idx, dst.Vals = r.par.FilterAbove(g, eta, dst.Idx, dst.Vals)
	return nil
}
