package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTrainerGradientMatchesUnboundReplica checks that binding the
// parameters' G into each worker's flat buffer changed where gradients
// land and nothing else. An independent replica steps the same model the
// way the Trainer did before the bind — clear G, forward, backward, copy
// every G out — through the same compressors, reducer and optimizer; the
// Trainer's OnGradient tap and per-step losses must equal the replica's
// bit for bit, with several workers rebinding one model and with the
// error-feedback residual in the tap.
func TestTrainerGradientMatchesUnboundReplica(t *testing.T) {
	const (
		seed  = 11
		steps = 20
		batch = 6 // one full block of Dense rows and a tail of two
		delta = 0.05
	)
	build := func() *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential(
			nn.NewConv2D("c1", 3, 4, 3, rng),
			&nn.ReLU{},
			&nn.MaxPool2D{},
			&nn.Flatten{},
			nn.NewDense("d1", 4*5*5, 24, rng),
			&nn.ReLU{},
			nn.NewDense("d2", 24, 10, rng),
		)
	}
	ds := data.NewImages(data.ImagesConfig{N: 128, Classes: 10, Seed: seed})
	for _, workers := range []int{1, 2, 4} {
		for _, ec := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/ec=%v", workers, ec), func(t *testing.T) {
				var taps [][]float64
				tr, err := NewTrainer(TrainerConfig{
					Workers: workers,
					Model:   build(),
					Loss:    &nn.SoftmaxCrossEntropy{},
					Opt:     &nn.SGD{LR: 0.05},
					Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
						return ds.Batch(rng, batch)
					},
					NewCompressor: func() compress.Compressor { return core.NewE() },
					Delta:         delta,
					EC:            ec,
					Seed:          seed,
					OnGradient: func(iter int, flat []float64) {
						taps = append(taps, append([]float64(nil), flat...))
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				losses, _, err := tr.Run(steps)
				if err != nil {
					t.Fatal(err)
				}

				// The replica: own model, own G storage, gradients copied
				// out parameter by parameter.
				model := build()
				params := model.Params()
				dim := nn.ParamCount(params)
				loss := &nn.SoftmaxCrossEntropy{}
				opt := &nn.SGD{LR: 0.05}
				rngs := make([]*rand.Rand, workers)
				comps := make([]compress.Compressor, workers)
				ins := make([]ExchangeInput, workers)
				for w := range rngs {
					rngs[w] = rand.New(rand.NewSource(workerSeed(seed, w)))
					comps[w] = core.NewE()
					if ec {
						comps[w] = compress.NewErrorFeedback(comps[w])
					}
					ins[w] = ExchangeInput{Worker: w, Dense: make([]float64, dim), Sparse: &tensor.Sparse{Dim: dim}}
				}
				agg := make([]float64, dim)
				for step := 0; step < steps; step++ {
					sum := 0.0
					for w := 0; w < workers; w++ {
						x, targets := ds.Batch(rngs[w], batch)
						for _, p := range params {
							clear(p.G)
						}
						sum += loss.Forward(model.Forward(x), targets)
						model.Backward(loss.Backward())
						flat := ins[w].Dense
						off := 0
						for _, p := range params {
							off += copy(flat[off:], p.G)
						}
						if w == 0 {
							want := append([]float64(nil), flat...)
							if e, ok := comps[0].(*compress.ErrorFeedback); ok && e.Residual() != nil {
								tensor.Add(e.Residual(), want)
							}
							for i := range want {
								if math.Float64bits(taps[step][i]) != math.Float64bits(want[i]) {
									t.Fatalf("step %d: tap[%d] = %v, replica %v", step, i, taps[step][i], want[i])
								}
							}
						}
						if err := comps[w].CompressInto(ins[w].Sparse, flat, delta); err != nil {
							t.Fatal(err)
						}
					}
					if want := sum * (1 / float64(workers)); math.Float64bits(losses[step]) != math.Float64bits(want) {
						t.Fatalf("step %d: loss %v, replica %v", step, losses[step], want)
					}
					if err := (InProcess{}).Exchange(step, ins, agg); err != nil {
						t.Fatal(err)
					}
					opt.StepFlat(params, agg)
				}
				if len(taps) != steps {
					t.Errorf("tap saw %d gradients, want %d", len(taps), steps)
				}
			})
		}
	}
}
