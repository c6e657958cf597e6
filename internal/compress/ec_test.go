package compress

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

func TestErrorFeedbackConservesMass(t *testing.T) {
	// Invariant: after every step, residual + transmitted == sum of all
	// corrected gradients so far; equivalently, per step,
	// corrected = transmitted + residual.
	ec := NewErrorFeedback(NewTopK())
	g := laplaceVec(5000, 0.01, 30)
	prevResidual := make([]float64, len(g))
	for step := 0; step < 10; step++ {
		s, err := FreshCompress(ec, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		// corrected = g + prevResidual; check corrected == dense(s) + residual.
		dense := s.Dense()
		for i := range g {
			corrected := g[i] + prevResidual[i]
			if math.Abs(corrected-(dense[i]+ec.Residual()[i])) > 1e-12 {
				t.Fatalf("step %d: mass not conserved at %d", step, i)
			}
		}
		copy(prevResidual, ec.Residual())
	}
}

func TestErrorFeedbackEventuallyTransmitsEverything(t *testing.T) {
	// With a constant gradient, EC guarantees every coordinate is
	// eventually transmitted: the residual of suppressed coordinates grows
	// until it crosses the Top-k bar.
	d := 100
	g := make([]float64, d)
	for i := range g {
		g[i] = 1.0 / float64(i+1) // strictly decreasing magnitudes
	}
	ec := NewErrorFeedback(NewTopK())
	transmitted := make([]bool, d)
	for step := 0; step < 200; step++ {
		s, err := FreshCompress(ec, g, 0.05) // k = 5
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range s.Idx {
			transmitted[j] = true
		}
	}
	for i, ok := range transmitted {
		if !ok {
			t.Fatalf("coordinate %d never transmitted under EC", i)
		}
	}
}

func TestErrorFeedbackResidualShrinksAggregate(t *testing.T) {
	// The time-averaged transmitted vector under EC converges to the true
	// gradient mean (here constant), unlike plain Top-k which permanently
	// drops the tail.
	d := 1000
	g := laplaceVec(d, 0.01, 31)
	ec := NewErrorFeedback(NewTopK())
	acc := make([]float64, d)
	accPlain := make([]float64, d)
	const steps = 400
	for step := 0; step < steps; step++ {
		s, err := FreshCompress(ec, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		s.AddTo(acc)
		sp, err := FreshCompress(NewTopK(), g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		sp.AddTo(accPlain)
	}
	tensor.Scale(1.0/steps, acc)
	tensor.Scale(1.0/steps, accPlain)
	relErr := func(avg []float64) float64 {
		diff := tensor.Clone(avg)
		tensor.Axpy(-1, g, diff)
		return tensor.Norm2(diff) / tensor.Norm2(g)
	}
	ecErr, plainErr := relErr(acc), relErr(accPlain)
	if ecErr > 0.15 {
		t.Errorf("EC average relative error = %v, want < 0.15", ecErr)
	}
	// Plain Top-k permanently drops the tail; EC must beat it decisively.
	if ecErr > plainErr/3 {
		t.Errorf("EC error %v not clearly better than plain Top-k %v", ecErr, plainErr)
	}
}

func TestErrorFeedbackDimensionChangeErrors(t *testing.T) {
	ec := NewErrorFeedback(NewTopK())
	if _, err := FreshCompress(ec, make([]float64, 10), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := FreshCompress(ec, make([]float64, 11), 0.5); err == nil {
		t.Error("dimension change should error")
	}
}

func TestErrorFeedbackName(t *testing.T) {
	if got := NewErrorFeedback(NewTopK()).Name(); got != "topk+ec" {
		t.Errorf("Name = %q", got)
	}
}

func TestErrorFeedbackDoesNotModifyInput(t *testing.T) {
	ec := NewErrorFeedback(NewTopK())
	g := laplaceVec(500, 1, 33)
	orig := tensor.Clone(g)
	for i := 0; i < 5; i++ {
		if _, err := FreshCompress(ec, g, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for i := range g {
		if g[i] != orig[i] {
			t.Fatal("EC modified its input")
		}
	}
}

// failingInner is a wrapped compressor that fails after a set number of
// successful calls.
type failingInner struct {
	Compressor
	okCalls int
}

var errInnerFailed = errors.New("inner failed")

func (f *failingInner) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if f.okCalls == 0 {
		return errInnerFailed
	}
	f.okCalls--
	return f.Compressor.CompressInto(dst, g, delta)
}

// fusedFailingInner is failingInner offering AccumulateCompressor the way
// its contract spells it: the add, then CompressInto.
type fusedFailingInner struct {
	failingInner
	fusedCalls int
}

func (f *fusedFailingInner) CompressAccumulateInto(dst *tensor.Sparse, acc, g []float64, delta float64) error {
	f.fusedCalls++
	tensor.Add(g, acc)
	return f.CompressInto(dst, acc, delta)
}

// TestErrorFeedbackFailureCarriesWholeGradient pins the failure
// semantics of the in-place bookkeeping, on the unfused arm and on the
// fused one: when the wrapped compressor fails, rejects the ratio, or the
// wire rounding fails, the residual is r + g bit for bit — the failed
// step's gradient is carried, not lost, not half-subtracted and not added
// twice.
func TestErrorFeedbackFailureCarriesWholeGradient(t *testing.T) {
	g := laplaceVec(2000, 0.01, 34)
	type arm struct {
		delta    float64
		sabotage func(*ErrorFeedback, *failingInner)
	}
	for name, a := range map[string]arm{
		"inner":     {0.01, func(_ *ErrorFeedback, in *failingInner) { in.okCalls = 0 }},
		"wire":      {0.01, func(ec *ErrorFeedback, _ *failingInner) { ec.SetWireFormat(encoding.Format(200)) }},
		"bad delta": {math.NaN(), func(*ErrorFeedback, *failingInner) {}},
	} {
		for _, fusedArm := range []bool{false, true} {
			name := fmt.Sprintf("%s fused=%v", name, fusedArm)
			fused := &fusedFailingInner{failingInner: failingInner{Compressor: NewTopK(), okCalls: 1 << 30}}
			inner := &fused.failingInner
			ec := NewErrorFeedback(inner)
			if fusedArm {
				ec = NewErrorFeedback(fused)
			}
			dst := &tensor.Sparse{}
			for step := 0; step < 3; step++ {
				if err := ec.CompressInto(dst, g, 0.01); err != nil {
					t.Fatal(err)
				}
			}
			want := tensor.Clone(ec.Residual())
			tensor.Add(g, want)

			a.sabotage(ec, inner)
			if err := ec.CompressInto(dst, g, a.delta); err == nil {
				t.Fatalf("%s: failure not surfaced", name)
			}
			for i, r := range ec.Residual() {
				if math.Float64bits(r) != math.Float64bits(want[i]) {
					t.Fatalf("%s: residual[%d] = %v after a failed step, want r + g = %v", name, i, r, want[i])
				}
			}
			if fusedArm != (fused.fusedCalls == 4) {
				t.Fatalf("%s: fused arm taken %d times in 4 steps", name, fused.fusedCalls)
			}
		}
	}
}

// TestErrorFeedbackMatchesOutOfPlace holds the in-place bookkeeping
// bit-equal to the textbook form it replaced: corrected = g + r in a
// second buffer, select, r = corrected - selection.
func TestErrorFeedbackMatchesOutOfPlace(t *testing.T) {
	const d, delta = 3000, 0.02
	ec := NewErrorFeedback(NewTopK())
	ec.SetWireFormat(encoding.FormatPairsBF16)
	ref := NewTopK()
	residual := make([]float64, d)
	corrected := make([]float64, d)
	got, want := &tensor.Sparse{}, &tensor.Sparse{}
	for step := 0; step < 8; step++ {
		g := laplaceVec(d, 0.01, int64(40+step))
		if err := ec.CompressInto(got, g, delta); err != nil {
			t.Fatal(err)
		}
		copy(corrected, g)
		tensor.Add(residual, corrected)
		if err := ref.CompressInto(want, corrected, delta); err != nil {
			t.Fatal(err)
		}
		if err := encoding.RoundTripValues(encoding.FormatPairsBF16, want.Vals); err != nil {
			t.Fatal(err)
		}
		copy(residual, corrected)
		for i, j := range want.Idx {
			residual[j] -= want.Vals[i]
		}
		if !reflect.DeepEqual(got.Idx, want.Idx) {
			t.Fatalf("step %d: selections differ", step)
		}
		for i := range want.Vals {
			if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("step %d: value %d differs", step, i)
			}
		}
		for i := range residual {
			if math.Float64bits(ec.Residual()[i]) != math.Float64bits(residual[i]) {
				t.Fatalf("step %d: residual[%d] = %v, out-of-place %v", step, i, ec.Residual()[i], residual[i])
			}
		}
	}
}

// TestErrorFeedbackRetainsOneDenseBuffer is the footprint guard: the
// wrapper keeps the residual and nothing else of size d, whatever its
// fields are called.
func TestErrorFeedbackRetainsOneDenseBuffer(t *testing.T) {
	const d = 1 << 20
	ec := NewErrorFeedback(NewRandomK(1, false))
	g := make([]float64, d)
	g[7] = 1
	dst := &tensor.Sparse{}
	for step := 0; step < 3; step++ {
		if err := ec.CompressInto(dst, g, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	ec.RestoreResidual(tensor.Clone(ec.Residual()))
	retained := 0
	v := reflect.ValueOf(ec).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			retained += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	if retained != 8*d {
		t.Fatalf("ErrorFeedback retains %d bytes of slices at d = %d, want one []float64 (%d)", retained, d, 8*d)
	}
}
