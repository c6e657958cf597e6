// Package compress implements the gradient sparsifiers evaluated in the
// SIDCo paper: exact Top-k, DGC (random sub-sampling + hierarchical
// Top-k), RedSync (max/mean ratio search), GaussianKSGD (Gaussian fit with
// iterative threshold adjustment), Random-k, and a no-op baseline —
// together with the error-feedback (EC) wrapper used to preserve
// convergence under aggressive sparsification.
//
// The SIDCo compressor itself lives in internal/core and satisfies the
// same Compressor interface.
package compress

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// errEmptyGradient is hoisted to package level so the zero-alloc
// CompressInto hot paths can reject empty input without constructing
// an error value per call.
var errEmptyGradient = errors.New("compress: empty gradient")

// Compressor selects a sparse subset of a gradient vector targeting a
// compression ratio delta = k/d.
//
// CompressInto is the one entry point: the selection lands in
// caller-owned storage, and every in-repo compressor keeps per-instance
// scratch (fit buffers, sample buffers, radix-select histograms) so
// steady-state iterations are allocation-free. A caller that wants a
// fresh vector per call uses the free function FreshCompress.
//
// Two optional interfaces sit beside it: AccumulateCompressor (error
// feedback's add inside the first sweep) and SelectionReporter (an
// estimator's account of its last step).
type Compressor interface {
	// Name returns a short identifier used in reports ("topk", "dgc", ...).
	Name() string
	// CompressInto sparsifies g at target ratio delta in (0, 1] into dst,
	// resetting dst first and reusing its storage; the selection has
	// ascending unique indices. dst is left untouched on error.
	// Implementations must not modify g: it may alias state the caller
	// keeps across steps (the error-feedback residual is handed to its
	// wrapped compressor this way), so a write would corrupt more than
	// one call's input. They must not retain dst or alias internal
	// scratch into it either — the caller owns dst between calls.
	CompressInto(dst *tensor.Sparse, g []float64, delta float64) error
}

// FreshCompress is the allocating form of CompressInto: it compresses g
// into a new sparse vector the caller owns outright.
func FreshCompress(c Compressor, g []float64, delta float64) (*tensor.Sparse, error) {
	dst := &tensor.Sparse{}
	if err := c.CompressInto(dst, g, delta); err != nil {
		return nil, err
	}
	return dst, nil
}

// TargetK converts a compression ratio to an element count: k =
// round(delta*d), at least 1 for non-empty vectors.
func TargetK(d int, delta float64) int {
	if d == 0 {
		return 0
	}
	k := int(math.Round(delta * float64(d)))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	return k
}

func validate(g []float64, delta float64) error {
	if len(g) == 0 {
		return errEmptyGradient
	}
	if math.IsNaN(delta) || delta <= 0 || delta > 1 {
		return fmt.Errorf("compress: ratio %v outside (0, 1]", delta)
	}
	return nil
}

// None is the no-compression baseline: it keeps the full gradient.
type None struct{}

// Name implements Compressor.
func (None) Name() string { return "none" }

// CompressInto implements Compressor; delta is ignored and the whole
// vector is kept.
//
//sidco:hotpath
func (None) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if len(g) == 0 {
		return errEmptyGradient
	}
	dst.Reset(len(g))
	dst.Grow(len(g))
	for i, gi := range g {
		dst.Append(int32(i), gi)
	}
	return nil
}

// TopK is the exact Top-k sparsifier T_k: it keeps the k = delta*d
// elements with the largest magnitude. It is the accuracy gold standard
// and the computational worst case of the study. Each instance owns its
// radix-select scratch; create one per worker with NewTopK.
type TopK struct {
	sel tensor.Selector
}

// NewTopK creates a Top-k compressor with its own selection scratch.
func NewTopK() *TopK { return &TopK{} }

// Name implements Compressor.
func (*TopK) Name() string { return "topk" }

// CompressInto implements Compressor.
//
//sidco:hotpath
func (t *TopK) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	return t.compress(dst, g, nil, delta)
}

// CompressAccumulateInto implements AccumulateCompressor: acc += g rides
// the selection's histogram pass. len(acc) must equal len(g).
//
//sidco:hotpath
func (t *TopK) CompressAccumulateInto(dst *tensor.Sparse, acc, g []float64, delta float64) error {
	return t.compress(dst, acc, g, delta)
}

// compress selects the top k of g, or of g += add when add is not nil.
func (t *TopK) compress(dst *tensor.Sparse, g, add []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		if add != nil {
			tensor.Add(add, g) // no selection will carry it
		}
		return err
	}
	dst.Reset(len(g))
	t.sel.TopKAccumulateInto(dst, g, add, TargetK(len(g), delta))
	return nil
}

// Correction says what replaced a threshold estimate whose selection
// missed the tolerance band around k.
type Correction uint8

const (
	// CorrectionNone: the estimate's own selection shipped.
	CorrectionNone Correction = iota
	// CorrectionList: the threshold was re-taken as the exact k-th largest
	// magnitude of an exceedance list the estimate had in hand — O(list).
	CorrectionList
	// CorrectionSweep: no list held k elements, so the exact threshold was
	// selected from the whole gradient and the gradient filtered again —
	// the O(d) a Top-k compressor pays.
	CorrectionSweep
)

// Selection describes how a threshold estimator arrived at its most
// recent selection: the estimator's own account of a step, which
// telemetry, the figure harness and the examples all read from here.
type Selection struct {
	// Threshold is the magnitude cut that shipped.
	Threshold float64
	// Stages is the number of fitting stages the estimate ran; zero means
	// the compressor has nothing to report.
	Stages int
	// Estimated is the element count the estimate alone selected — equal
	// to the shipped count unless Correction replaced it.
	Estimated int
	// Correction is what the band check did.
	Correction Correction
}

// SelectionReporter is the optional interface of a compressor that can
// account for its most recent CompressInto. Wrappers forward to the
// compressor they wrap and report the zero Selection when it has none.
type SelectionReporter interface {
	LastSelection() Selection
}

// SetParallelism configures nothing and reports false: every compressor
// runs its passes on the calling goroutine. It exists only because the
// frozen benchmark adapter (bench/adapter.go) still calls it; it goes
// when that caller does.
func SetParallelism(Compressor, int) bool { return false }
