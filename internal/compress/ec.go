package compress

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// AccumulateCompressor is the optional interface of a compressor whose
// first sweep can carry error feedback's add, saving the add's own.
// CompressAccumulateInto(dst, acc, g, delta) leaves acc, dst, the error and
// the compressor's state exactly as tensor.Add(g, acc) followed by
// CompressInto(dst, acc, delta) would: acc += g whatever is returned.
type AccumulateCompressor interface {
	CompressAccumulateInto(dst *tensor.Sparse, acc, g []float64, delta float64) error
}

// ErrorFeedback wraps any Compressor with the error-compensation (EC)
// mechanism (Karimireddy et al., ICML 2019): the sparsification residual
// of iteration i-1 is added to the gradient of iteration i before
// compression, so no gradient mass is permanently lost. This is the
// memory-based compression mode of Appendix B.2.
//
// With SetWireFormat the same mechanism additionally absorbs the wire
// quantization residual: the selected values are rounded to exactly what
// a receiver of the given encoding format will decode, and the
// difference joins the residual. The transmitted gradient then matches
// what every rank applies, bit for bit, while the precision lost to the
// narrow format is corrected over subsequent steps instead of discarded.
type ErrorFeedback struct {
	// Inner is the wrapped sparsifier.
	Inner Compressor

	residual []float64
	wire     encoding.Format
	wireSet  bool
}

// NewErrorFeedback wraps inner with a fresh (zero) residual.
func NewErrorFeedback(inner Compressor) *ErrorFeedback {
	return &ErrorFeedback{Inner: inner}
}

// SetWireFormat makes the wrapper pre-round selected values to format
// f's decoded precision before computing the residual. A selection is
// encoded whole, so the rounding is wire-exact for every format —
// including FormatPairsI8, whose scale derives from the whole value
// stream.
func (e *ErrorFeedback) SetWireFormat(f encoding.Format) {
	e.wire = f
	e.wireSet = true
}

// LastSelection implements SelectionReporter by forwarding to the wrapped
// compressor.
func (e *ErrorFeedback) LastSelection() Selection {
	if r, ok := e.Inner.(SelectionReporter); ok {
		return r.LastSelection()
	}
	return Selection{}
}

// Name implements Compressor.
func (e *ErrorFeedback) Name() string { return e.Inner.Name() + "+ec" }

// CompressInto implements Compressor: it compresses g + residual,
// delegating the selection to the wrapped compressor, and folds the
// uncompressed remainder back into the residual. The bookkeeping is in
// place on the one persistent d-sized buffer: residual += g makes it the
// corrected gradient (bit-equal to g + residual, float addition
// commutes), the wrapped compressor selects from it, and subtracting the
// selection at the selected indices leaves the new residual. A wrapped
// AccumulateCompressor does the add inside its own first sweep, to the
// same bits. It is allocation-free after the first call.
//
// On error — from the wrapped compressor, on either arm, or from rounding
// to the wire — the residual stays at r + g: the whole gradient of the
// failed step is carried as untransmitted mass, nothing is lost, and dst
// is whatever the wrapped compressor left. Calling again with the same g
// would add it a second time, so a caller that retries a failed step must
// restore the residual first (dist.Trainer aborts instead).
//
//sidco:hotpath
func (e *ErrorFeedback) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if e.residual == nil {
		e.residual = make([]float64, len(g)) //sidco:alloc first-call lazy init of the persistent residual
	}
	if len(e.residual) != len(g) {
		return fmt.Errorf("compress: EC residual dimension changed from %d to %d", len(e.residual), len(g)) //sidco:alloc misuse error path, not steady state
	}
	var err error
	if ac, ok := e.Inner.(AccumulateCompressor); ok {
		err = ac.CompressAccumulateInto(dst, e.residual, g, delta)
	} else {
		tensor.Add(g, e.residual)
		err = e.Inner.CompressInto(dst, e.residual, delta)
	}
	if err != nil {
		return err
	}

	// Round the selection to the wire's decoded precision first, so the
	// residual below absorbs the quantization error too.
	if e.wireSet {
		if err := encoding.RoundTripValues(e.wire, dst.Vals); err != nil {
			return err
		}
	}

	for i, j := range dst.Idx {
		e.residual[j] -= dst.Vals[i]
	}
	return nil
}

// Residual exposes the current residual for tests and fitting studies
// (Figure 8 fits gradients after EC accumulation). Callers must not
// modify it.
func (e *ErrorFeedback) Residual() []float64 { return e.residual }

// RestoreResidual overwrites the carried residual with a checkpointed
// copy — the resume hook of dist's checkpointing. Nil or empty resets
// to the lazily-initialised zero state.
func (e *ErrorFeedback) RestoreResidual(r []float64) {
	if len(r) == 0 {
		e.residual = nil
		return
	}
	e.residual = append(e.residual[:0], r...)
}
