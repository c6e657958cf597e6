package dist

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// allocTrainer builds a trainer whose Batch callback reuses its tensors,
// so the measurement isolates the engine's own per-step garbage.
func allocTrainer(t *testing.T, workers int, factory func() compress.Compressor, tracer *telemetry.Tracer) *Trainer {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential(
		nn.NewDense("d1", 24, 16, rng),
		&nn.ReLU{},
		nn.NewDense("d2", 16, 4, rng),
	)
	const batch = 8
	xs := make([]*nn.Tensor, workers)
	ts := make([][]int, workers)
	for w := range xs {
		xs[w] = nn.NewTensor(batch, 24)
		ts[w] = make([]int, batch)
	}
	tr, err := NewTrainer(TrainerConfig{
		Workers: workers,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			x, targets := xs[worker], ts[worker]
			for i := range targets {
				targets[i] = rng.Intn(4)
				for j := 0; j < 24; j++ {
					x.Data[i*24+j] = rng.NormFloat64() + float64(targets[i])
				}
			}
			return x, targets
		},
		NewCompressor: factory,
		Delta:         0.05,
		EC:            factory != nil,
		ClipNorm:      5,
		Seed:          3,
		Telemetry:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStepSteadyStateAllocs is the PR's acceptance criterion: after
// warm-up, a full synchronous training step — batch draw, forward,
// backward, clip, EC + SIDCo compression, in-process exchange, optimizer
// update — must stay within a small constant allocation budget. The
// multi-worker case tolerates the runtime's goroutine bookkeeping; the
// single-worker case runs inline and must be allocation-free — with a
// live tracer too, spans, selection counters and all — on the sparse route
// (the merged mean handed to SGD.StepSparse, which every compressed case
// here takes by default), on the dense one, forced by hiding the
// exchange's sparse form, and on the spans route of a dense trainer, whose
// exchange hands the mean over chunk by chunk through the closure the
// trainer bound once.
func TestStepSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		factory func() compress.Compressor
		budget  float64
		traced  bool
		dense   bool // force the dense route on a compressed trainer
		spans   bool // exchange through spanExchange
	}{
		{"1worker-sidco-ec", 1, func() compress.Compressor { return core.NewE() }, 0, false, false, false},
		{"1worker-sidco-ec-traced", 1, func() compress.Compressor { return core.NewE() }, 0, true, false, false},
		{"1worker-sidco-ec-dense-route", 1, func() compress.Compressor { return core.NewE() }, 0, false, true, false},
		{"1worker-sidco-ec-dense-route-traced", 1, func() compress.Compressor { return core.NewE() }, 0, true, true, false},
		{"2workers-sidco-ec", 2, func() compress.Compressor { return core.NewE() }, 8, false, false, false},
		{"4workers-topk-ec", 4, func() compress.Compressor { return compress.NewTopK() }, 8, false, false, false},
		{"2workers-dense", 2, nil, 8, false, false, false},
		{"1worker-dense-spans-route", 1, nil, 0, false, false, true},
		{"1worker-dense-spans-route-traced", 1, nil, 0, true, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tracer *telemetry.Tracer
			agg := telemetry.NewAggregator()
			if tc.traced {
				tracer = telemetry.New(agg, telemetry.NewJSONLForNode(io.Discard, -1))
			}
			tr := allocTrainer(t, tc.workers, tc.factory, tracer)
			if tc.dense {
				tr.useExchange(&exchangeRecorder{})
			}
			if tc.spans {
				tr.useExchange(spanExchange{})
			}
			if (tr.applyEx != nil) != tc.spans {
				t.Fatalf("trainer on the spans route = %v, want %v", tr.applyEx != nil, tc.spans)
			}
			if sparse := tc.factory != nil && !tc.dense; (tr.sparseEx != nil) != sparse {
				t.Fatalf("trainer on the sparse route = %v, want %v", tr.sparseEx != nil, sparse)
			}
			for i := 0; i < 30; i++ { // warm every scratch buffer
				if _, err := tr.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := tr.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Errorf("Step allocates %v objects/op in steady state, budget %v", allocs, tc.budget)
			}
			_, _, nodes := agg.Snapshot()
			nc := nodes[0]
			steps, applied := nc[telemetry.CounterSteps], nc[telemetry.CounterApplyElems]
			if tc.traced && tc.factory != nil && (nc[telemetry.CounterTargetElems] != steps*int64(compress.TargetK(tr.Dim(), 0.05)) || nc[telemetry.CounterSelectedElems] == 0) {
				t.Errorf("traced run counted %v", nc)
			}
			// One worker: the merged mean is its selection, the dense
			// aggregate is the model.
			if want := nc[telemetry.CounterSelectedElems]; tc.traced && tc.factory != nil && !tc.dense && applied != want {
				t.Errorf("sparse route applied %d elements, the worker selected %d", applied, want)
			}
			if want := steps * int64(tr.Dim()); tc.traced && (tc.dense || tc.spans) && applied != want {
				t.Errorf("dense route applied %d elements over %d steps, want d = %d per step", applied, steps, tr.Dim())
			}
			if spans := agg.Spans(); tc.traced && tc.spans {
				for _, sp := range spans {
					if sp.Kind == telemetry.SpanApply && sp.Count != 3*steps {
						t.Errorf("spans route traced %d apply spans over %d steps, want one per chunk", sp.Count, steps)
					}
				}
			}
		})
	}
}
