package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestInProcessExchangeMeansContributions(t *testing.T) {
	dense := [][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	}
	ins := make([]ExchangeInput, len(dense))
	for w, g := range dense {
		ins[w] = ExchangeInput{Worker: w, Dense: g}
	}
	agg := []float64{99, 99, 99, 99} // must be zeroed by the exchanger
	if err := (InProcess{}).Exchange(0, ins, agg); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 7, 8}
	for i := range want {
		if agg[i] != want[i] {
			t.Errorf("agg[%d] = %v, want %v", i, agg[i], want[i])
		}
	}
}

func TestInProcessExchangeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim, workers = 200, 3
	ins := make([]ExchangeInput, workers)
	want := make([]float64, dim)
	for w := 0; w < workers; w++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		s, err := compress.FreshCompress(compress.NewTopK(), g, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ins[w] = ExchangeInput{Worker: w, Dense: g, Sparse: s}
		s.AddTo(want)
	}
	tensor.Scale(1.0/workers, want)
	agg := make([]float64, dim)
	if err := (InProcess{}).Exchange(0, ins, agg); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if agg[i] != want[i] {
			t.Fatalf("agg[%d] = %v, want %v", i, agg[i], want[i])
		}
	}
}

func TestInProcessExchangeRejectsEmpty(t *testing.T) {
	if err := (InProcess{}).Exchange(0, nil, []float64{0}); err == nil {
		t.Error("empty input set should error")
	}
}

// exchangeRecorder wraps InProcess and records the steps it saw, proving
// the Trainer routes every iteration through the configured exchange.
type exchangeRecorder struct {
	steps []int
}

func (r *exchangeRecorder) Exchange(step int, ins []ExchangeInput, agg []float64) error {
	r.steps = append(r.steps, step)
	return InProcess{}.Exchange(step, ins, agg)
}

func TestTrainerUsesConfiguredExchange(t *testing.T) {
	rec := &exchangeRecorder{}
	tr := convTrainer(t, 2, "topk", 0.05, false, 6, nil)
	tr.useExchange(rec)
	if _, _, err := tr.Run(4); err != nil {
		t.Fatal(err)
	}
	if len(rec.steps) != 4 {
		t.Fatalf("exchange called %d times, want 4", len(rec.steps))
	}
	for i, s := range rec.steps {
		if s != i {
			t.Errorf("exchange step %d reported as %d", i, s)
		}
	}
}

// scribblingExchange fails its first call after filling agg with NaNs —
// the worst a failed round is allowed to leave behind — and is InProcess
// from then on.
type scribblingExchange struct {
	failed bool
}

var errScribbled = errors.New("exchange failed mid-round")

func (x *scribblingExchange) Exchange(step int, ins []ExchangeInput, agg []float64) error {
	if !x.failed {
		x.failed = true
		for i := range agg {
			agg[i] = math.NaN()
		}
		return errScribbled
	}
	return InProcess{}.Exchange(step, ins, agg)
}

// scribblingSparseExchange is scribblingExchange on the sparse route: its
// first ExchangeSparse fails after leaving a mean full of NaNs at indices
// that do not even ascend.
type scribblingSparseExchange struct {
	scribblingExchange
}

func (x *scribblingSparseExchange) ExchangeSparse(step int, ins []ExchangeInput, mean *tensor.Sparse) (bool, error) {
	if !x.failed {
		x.failed = true
		mean.Reset(ins[0].Sparse.Dim)
		for i := 0; i < 8; i++ {
			mean.Append(int32(7-i), math.NaN())
		}
		return true, errScribbled
	}
	return InProcess{}.ExchangeSparse(step, ins, mean)
}

// spanExchange is an ApplyExchange in process: InProcess's mean, handed to
// apply in three chunks out of order, as a ring hands over its own.
type spanExchange struct{}

func (spanExchange) Exchange(step int, ins []ExchangeInput, agg []float64) error {
	return InProcess{}.Exchange(step, ins, agg)
}

func (spanExchange) ExchangeApply(step int, ins []ExchangeInput, agg []float64, apply func(off int, mean []float64)) (bool, error) {
	if err := (InProcess{}).Exchange(step, ins, agg); err != nil {
		return true, err
	}
	d := len(agg)
	for _, c := range [][2]int{{2 * d / 3, d}, {0, d / 3}, {d / 3, 2 * d / 3}} {
		apply(c[0], agg[c[0]:c[1]])
	}
	return true, nil
}

// scribblingApplyExchange is scribblingExchange on the spans route: its
// first ExchangeApply fails after leaving agg full of NaNs, having applied
// nothing, as the contract says a failed round does.
type scribblingApplyExchange struct {
	scribblingExchange
}

func (x *scribblingApplyExchange) ExchangeApply(step int, ins []ExchangeInput, agg []float64, apply func(off int, mean []float64)) (bool, error) {
	if !x.failed {
		return true, x.Exchange(step, ins, agg)
	}
	return spanExchange{}.ExchangeApply(step, ins, agg, apply)
}

// TestTrainerNeverAppliesFailedExchange holds Trainer.Step to the
// GradientExchange error contract on every route: a failed exchange's agg
// (or merged mean) is never applied and never leaks into a later step.
// Each worker redraws one fixed batch and top-k keeps no state, so the
// failed step has nothing else to leave behind and the retry can be
// compared with a trainer that never failed.
func TestTrainerNeverAppliesFailedExchange(t *testing.T) {
	t.Run("dense", func(t *testing.T) { neverAppliesFailedExchange(t, &scribblingExchange{}, false) })
	t.Run("sparse", func(t *testing.T) { neverAppliesFailedExchange(t, &scribblingSparseExchange{}, true) })
	t.Run("spans", func(t *testing.T) { neverAppliesFailedExchange(t, &scribblingApplyExchange{}, false) })
}

func neverAppliesFailedExchange(t *testing.T, failing GradientExchange, sparse bool) {
	build := func(ex GradientExchange) *Trainer {
		tr := convTrainer(t, 2, "topk", 0.05, false, 4, nil)
		draw := tr.cfg.Batch
		tr.cfg.Batch = func(worker int, _ *rand.Rand) (*nn.Tensor, []int) {
			return draw(worker, rand.New(rand.NewSource(int64(worker))))
		}
		tr.useExchange(ex)
		return tr
	}
	tr := build(failing)
	if got := tr.sparseEx != nil; got != sparse {
		t.Fatalf("trainer on the sparse route = %v, want %v", got, sparse)
	}
	before := nn.FlattenWeights(tr.Params(), nil)
	if _, err := tr.Step(); !errors.Is(err, errScribbled) {
		t.Fatalf("Step error = %v, want it to wrap %v", err, errScribbled)
	}
	if tr.iter != 0 {
		t.Errorf("iter = %d after a failed step, want 0", tr.iter)
	}
	for i, w := range nn.FlattenWeights(tr.Params(), nil) {
		if math.Float64bits(w) != math.Float64bits(before[i]) {
			t.Fatalf("weight[%d] = %v after a failed step, was %v", i, w, before[i])
		}
	}

	clean := build(InProcess{})
	for step := 0; step < 2; step++ {
		got, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d after the failure: loss %v, undisturbed trainer has %v", step, got, want)
		}
	}
	want := nn.FlattenWeights(clean.Params(), nil)
	for i, w := range nn.FlattenWeights(tr.Params(), nil) {
		if math.Float64bits(w) != math.Float64bits(want[i]) {
			t.Fatalf("weight[%d] = %v, undisturbed trainer has %v", i, w, want[i])
		}
	}
}
