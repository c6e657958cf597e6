package compress

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/stats"
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

// AbsSumCompressor is the optional interface of a compressor whose first
// stage reads nothing of its input but Σ|v| (SIDCo-E). When UsesAbsSum
// reports true, CompressWithAbsSum(dst, g, sum, delta) with sum equal to
// stats' Σ|g| bit for bit leaves dst and the compressor's state exactly as
// CompressInto(dst, g, delta) would, without the sweep that sums g.
type AbsSumCompressor interface {
	UsesAbsSum() bool
	CompressWithAbsSum(dst *tensor.Sparse, g []float64, sum, delta float64) error
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
//
// There are two ways in. CompressInto takes the step's gradient g and adds
// it into the residual itself. A caller that can add the gradient into
// the residual as it produces it takes the other: Accumulator hands it the
// residual to add into, and CompressAccumulated compresses the sum with no
// add of its own — the same bits, one d-sized buffer and two streams of the
// sweep fewer (dist.Trainer does this for an all-Dense model). When Inner's
// first stage reads only Σ|v| (AbsSumCompressor: SIDCo-E), that caller can
// also sum |v| as it adds, into Partials: CompressAccumulated then takes
// the sum from them and does not sweep the residual for it (dist.Trainer's
// Dense backward covers every whole 4096-element block of a weight matrix
// whose rows tile them; the blocks it does not cover are summed here).
type ErrorFeedback struct {
	// Inner is the wrapped sparsifier. Which optional interfaces it
	// offers is read once, on the first CompressInto or LastSelection.
	Inner Compressor

	residual []float64
	// sums are the residual's Σ|v| partials (Partials); they cover no
	// block but between a caller's add and CompressAccumulated.
	sums    stats.AbsPartials
	wire    encoding.Format
	wireSet bool
	// Inner as an AccumulateCompressor, as a SelectionReporter and, when
	// its first stage takes Σ|v|, as an AbsSumCompressor, or nil, once
	// resolved.
	fused    AccumulateCompressor
	reporter SelectionReporter
	absSum   AbsSumCompressor
	resolved bool
}

// resolve reads once which optional interfaces Inner offers. Asserted on
// every call, an interface assertion allocates at a random step: the
// runtime fills its per-site assertion cache on about one call in a
// thousand until the type is in it.
func (e *ErrorFeedback) resolve() {
	if !e.resolved {
		e.fused, _ = e.Inner.(AccumulateCompressor)
		e.reporter, _ = e.Inner.(SelectionReporter)
		if a, ok := e.Inner.(AbsSumCompressor); ok && a.UsesAbsSum() {
			e.absSum = a
		}
		e.resolved = true
	}
}

// NewErrorFeedback wraps inner with a fresh (zero) residual.
func NewErrorFeedback(inner Compressor) *ErrorFeedback {
	return &ErrorFeedback{Inner: inner}
}

// SetWireFormat makes the wrapper pre-round selected values to format
// f's decoded precision before computing the residual. Every format
// rounds each value on its own, so the pre-round is wire-exact however
// the selection is later encoded.
func (e *ErrorFeedback) SetWireFormat(f encoding.Format) {
	e.wire = f
	e.wireSet = true
}

// LastSelection implements SelectionReporter by forwarding to the wrapped
// compressor.
func (e *ErrorFeedback) LastSelection() Selection {
	if e.resolve(); e.reporter != nil {
		return e.reporter.LastSelection()
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
	if _, err := e.Accumulator(len(g)); err != nil {
		return err
	}
	e.resolve()
	e.sums.Reset(0) // the add below is not summed
	var err error
	if e.fused != nil {
		err = e.fused.CompressAccumulateInto(dst, e.residual, g, delta)
	} else {
		tensor.Add(g, e.residual)
		err = e.Inner.CompressInto(dst, e.residual, delta)
	}
	return e.settle(dst, err)
}

// Accumulator returns the residual for a caller to add the step's gradient
// into in place, before CompressAccumulated: the way in beside
// CompressInto's g for a caller that can produce the gradient as an add
// (dist.Trainer's Dense models bind it with nn.BindGradsAdding), which then
// needs neither a buffer for g nor the sweep that adds it. A zero residual
// of length d is allocated on first use; one of another length is an
// error. The caller may write it only by adding the gradient; every other
// caller must not modify it (Residual).
func (e *ErrorFeedback) Accumulator(d int) ([]float64, error) {
	if e.residual == nil {
		e.residual = make([]float64, d) //sidco:alloc first-call lazy init of the persistent residual
	}
	if len(e.residual) != d {
		return nil, fmt.Errorf("compress: EC residual dimension changed from %d to %d", len(e.residual), d) //sidco:alloc misuse error path, not steady state
	}
	return e.residual, nil
}

// Partials returns the residual's Σ|v| partials for the caller that adds
// into it (Accumulator) to fill as it adds — a block it covers must hold,
// as its chain, Σ|v| of the block after the add — when the wrapped
// compressor takes the sum (AbsSumCompressor), and nil otherwise: chains
// nobody reads are not worth carrying. The caller Resets them before its
// add (nn.BindGradsAdding does); CompressAccumulated consumes them.
func (e *ErrorFeedback) Partials() *stats.AbsPartials {
	if e.resolve(); e.absSum == nil {
		return nil
	}
	return &e.sums
}

// CompressAccumulated is CompressInto for a gradient the caller has
// already added into the residual (Accumulator): the wrapped compressor
// selects from the residual as it stands, with no add, and the selection
// is rounded to the wire and subtracted as CompressInto does. When the
// caller's add gave r + g bit for bit, dst, the residual and the wrapped
// compressor's state are what CompressInto(dst, g, delta) leaves, and so is
// the error contract: on error the residual stays at r + g. A wrapped
// AbsSumCompressor gets Σ|v| from Partials, whose uncovered blocks alone
// are swept, to the same bits.
//
//sidco:hotpath
func (e *ErrorFeedback) CompressAccumulated(dst *tensor.Sparse, delta float64) error {
	if e.residual == nil {
		return errEmptyGradient
	}
	if e.resolve(); e.absSum != nil {
		sum := e.sums.Total(e.residual)
		e.sums.Reset(0) // settle rewrites the residual
		return e.settle(dst, e.absSum.CompressWithAbsSum(dst, e.residual, sum, delta))
	}
	return e.settle(dst, e.Inner.CompressInto(dst, e.residual, delta))
}

// settle finishes a compression of the residual whose selection, or err,
// the wrapped compressor returned: it rounds the selection to the wire's
// decoded precision first, so the residual absorbs the quantization error
// too, and subtracts it from the residual.
func (e *ErrorFeedback) settle(dst *tensor.Sparse, err error) error {
	if err != nil {
		return err
	}
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
// modify it; the one writer besides the wrapper is the caller that adds a
// gradient into it through Accumulator.
func (e *ErrorFeedback) Residual() []float64 { return e.residual }

// RestoreResidual overwrites the carried residual with a checkpointed
// copy — the resume hook of dist's checkpointing. Nil or empty resets
// to the lazily-initialised zero state.
func (e *ErrorFeedback) RestoreResidual(r []float64) {
	e.sums.Reset(0)
	if len(r) == 0 {
		e.residual = nil
		return
	}
	e.residual = append(e.residual[:0], r...)
}
