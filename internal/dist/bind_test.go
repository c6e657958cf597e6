package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/encoding"
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

// hiddenEC is error feedback the Trainer cannot see as a
// compress.ErrorFeedback, so it keeps the route through each worker's
// gradient buffer: backward, then the wrapper's own add.
type hiddenEC struct{ compress.Compressor }

// TestResidualRouteMatchesBufferRoute holds the error-feedback route —
// backward adding each worker's gradient into its residual, which is then
// compressed as it stands — to the route through a gradient buffer, bit for
// bit: every step's loss, the weights and every worker's residual after the
// run, on math.Float64bits. It covers batch sizes 1–9 (one Dense block and
// several, with tails), one and two workers, every registry compressor
// under error feedback, the lossless, bitmap and pairs-bf16 wires'
// pre-rounding, and both of Dense's kernel paths, on a 12-9-4 model whose
// d = 157 holds no whole 4096-element block. Then SIDCo-E again on a
// 16-1024-4 model, whose first layer's rows tile four whole blocks: there
// the residual route carries Σ|v| block sums out of backward, and SIDCo-E's
// first stage takes its sum from them.
func TestResidualRouteMatchesBufferRoute(t *testing.T) {
	const (
		seed  = 5
		steps = 4
		delta = 0.1
	)
	type shape struct{ h, w, hidden int }
	build := func(m shape) *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential(
			&nn.Flatten{},
			nn.NewDense("d1", m.h*m.w, m.hidden, rng),
			&nn.ReLU{},
			nn.NewDense("d2", m.hidden, 4, rng),
		)
	}
	small, blocks := shape{3, 4, 9}, shape{4, 4, 1024}
	compressors := map[string]func() compress.Compressor{
		"topk":      func() compress.Compressor { return compress.NewTopK() },
		"dgc":       func() compress.Compressor { return compress.NewDGC(seed) },
		"redsync":   func() compress.Compressor { return compress.NewRedSync() },
		"gaussiank": func() compress.Compressor { return compress.NewGaussianKSGD() },
		"sidco-e":   func() compress.Compressor { return core.NewE() },
		"sidco-gp":  func() compress.Compressor { return core.NewGammaGP() },
		"sidco-p":   func() compress.Compressor { return core.NewGP() },
	}
	bitmap, bf16 := encoding.FormatBitmap, encoding.FormatPairsBF16
	wires := map[string]*encoding.Format{"lossless": nil, "bitmap": &bitmap, "pairs-bf16": &bf16}

	run := func(t *testing.T, m shape, workers, batch int, newComp func() compress.Compressor, wire *encoding.Format, hidden bool) ([]float64, []float64, [][]float64) {
		ds := data.NewImages(data.ImagesConfig{N: 64, C: 1, H: m.h, W: m.w, Classes: 4, Seed: seed})
		var tr *Trainer
		covered := 0 // blocks worker 0's backward summed, over the run
		cfg := TrainerConfig{
			Workers: workers,
			Model:   build(m),
			Loss:    &nn.SoftmaxCrossEntropy{},
			Opt:     &nn.SGD{LR: 0.1},
			Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
				return ds.Batch(rng, batch)
			},
			OnGradient: func(_ int, g []float64) {
				if sums := tr.workers[0].sums; sums != nil {
					for b := 0; b*4096 < len(g); b++ {
						if _, ok := sums.Chain(b); ok {
							covered++
						}
					}
				}
			},
			NewCompressor: newComp,
			Delta:         delta,
			EC:            true,
			ECWire:        wire,
			Seed:          seed,
		}
		var ecs []*compress.ErrorFeedback
		if hidden {
			cfg.EC, cfg.ECWire = false, nil
			cfg.NewCompressor = func() compress.Compressor {
				ec := compress.NewErrorFeedback(newComp())
				if wire != nil {
					ec.SetWireFormat(*wire)
				}
				ecs = append(ecs, ec)
				return hiddenEC{ec}
			}
		}
		var err error
		if tr, err = NewTrainer(cfg); err != nil {
			t.Fatal(err)
		}
		if tr.intoResidual == hidden {
			t.Fatalf("hidden=%v: intoResidual=%v", hidden, tr.intoResidual)
		}
		for _, w := range tr.workers {
			if (w.flat == nil) != !hidden {
				t.Fatalf("hidden=%v: worker %d has a gradient buffer of %d elements", hidden, w.id, len(w.flat))
			}
			if carries := !hidden && w.ec.Inner.Name() == "sidco-e"; (w.sums != nil) != carries {
				t.Fatalf("hidden=%v %s: worker %d carries block sums: %v", hidden, w.comp.Name(), w.id, w.sums != nil)
			}
			if !hidden {
				ecs = append(ecs, w.ec)
			}
		}
		losses, _, err := tr.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		if want := 0; tr.workers[0].sums != nil && m == blocks {
			if want = 4 * steps; covered != want {
				t.Fatalf("worker 0's backward covered %d blocks over %d steps, want %d", covered, steps, want)
			}
		} else if covered != want {
			t.Fatalf("worker 0's backward covered %d blocks, want none", covered)
		}
		res := make([][]float64, len(ecs))
		for i, ec := range ecs {
			res[i] = ec.Residual()
		}
		return losses, nn.FlattenWeights(tr.Params(), nil), res
	}

	paths := map[string]func(func()){
		"portable": nn.WithGoKernels,
		"chosen":   func(f func()) { f() },
	}
	for path, on := range paths {
		on(func() {
			for _, m := range []shape{small, blocks} {
				for name, newComp := range compressors {
					if m == blocks && name != "sidco-e" {
						continue
					}
					for wireName, wire := range wires {
						for _, workers := range []int{1, 2} {
							for batch := 1; batch <= 9; batch++ {
								what := fmt.Sprintf("%s/%d-%d-4/%s/%s/workers=%d/batch=%d", path, m.h*m.w, m.hidden, name, wireName, workers, batch)
								gotL, gotW, gotR := run(t, m, workers, batch, newComp, wire, false)
								wantL, wantW, wantR := run(t, m, workers, batch, newComp, wire, true)
								bitsEqual(t, what+" losses", gotL, wantL)
								bitsEqual(t, what+" weights", gotW, wantW)
								for w := range wantR {
									bitsEqual(t, fmt.Sprintf("%s residual %d", what, w), gotR[w], wantR[w])
								}
							}
						}
					}
				}
			}
		})
	}
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
