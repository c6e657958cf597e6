// Package repro's root benchmark suite regenerates every table and figure
// of the paper: run `go test -bench=. -benchmem` and each BenchmarkFigN /
// BenchmarkTable1 emits the corresponding ASCII table once (on the first
// iteration) and then times the underlying experiment. The cmd/ binaries
// print the same numbers at fuller fidelity.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/simgrad"
	"repro/internal/tensor"
)

// benchOpt keeps the per-iteration cost of the figure benches moderate;
// use cmd/sidco-* for full-fidelity runs.
var benchOpt = harness.Options{Iters: 30, SimScale: 400, Seed: 1}

// onceWriter returns os.Stdout on the first call per key and io.Discard
// afterwards, so each figure prints exactly once under -bench.
var (
	onceMu   sync.Mutex
	oncePerK = map[string]bool{}
)

func onceWriter(key string) io.Writer {
	onceMu.Lock()
	defer onceMu.Unlock()
	if oncePerK[key] {
		return io.Discard
	}
	oncePerK[key] = true
	return os.Stdout
}

func benchFigure(b *testing.B, key string, f func(w io.Writer) error) {
	b.Helper()
	if testing.Short() {
		// Most figure regenerations take seconds per run; `go test -short
		// -bench .` keeps only the raw compressor micro-benches.
		b.Skipf("figure bench %s skipped in -short mode", key)
	}
	for i := 0; i < b.N; i++ {
		if err := f(onceWriter(key)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	benchFigure(b, "table1", func(w io.Writer) error { harness.Table1Catalog(w); return nil })
}

func BenchmarkFig1MicroSpeedupAndQuality(b *testing.B) {
	benchFigure(b, "fig1", func(w io.Writer) error { return harness.Fig1(w, benchOpt) })
}

func BenchmarkFig2FittingNoEC(b *testing.B) {
	benchFigure(b, "fig2", func(w io.Writer) error { return harness.Fig2(w, harness.Options{Iters: 40, Seed: 2}) })
}

func BenchmarkFig3RNNBenchmarks(b *testing.B) {
	benchFigure(b, "fig3", func(w io.Writer) error { return harness.Fig3(w, benchOpt) })
}

func BenchmarkFig4LossAndEstimation(b *testing.B) {
	benchFigure(b, "fig4", func(w io.Writer) error { return harness.Fig4(w, harness.Options{Iters: 30, Seed: 3}) })
}

func BenchmarkFig5CIFAR(b *testing.B) {
	benchFigure(b, "fig5", func(w io.Writer) error { return harness.Fig5(w, benchOpt) })
}

func BenchmarkFig6ImageNet(b *testing.B) {
	benchFigure(b, "fig6", func(w io.Writer) error { return harness.Fig6(w, benchOpt) })
}

func BenchmarkFig7Compressibility(b *testing.B) {
	benchFigure(b, "fig7", func(w io.Writer) error { return harness.Fig7(w, harness.Options{Iters: 30, Seed: 4}) })
}

func BenchmarkFig8FittingWithEC(b *testing.B) {
	benchFigure(b, "fig8", func(w io.Writer) error { return harness.Fig8(w, harness.Options{Iters: 40, Seed: 2}) })
}

func BenchmarkFig9SmoothedRatios(b *testing.B) {
	benchFigure(b, "fig9", func(w io.Writer) error { return harness.Fig9(w, benchOpt) })
}

func BenchmarkFig10LossVsWallTime(b *testing.B) {
	benchFigure(b, "fig10", func(w io.Writer) error {
		return harness.Fig10(w, harness.Options{Iters: 30, SimScale: 400, Seed: 5})
	})
}

func BenchmarkFig11VGG19Breakdown(b *testing.B) {
	benchFigure(b, "fig11", func(w io.Writer) error { return harness.Fig11(w, benchOpt) })
}

func BenchmarkFig12CPUDevice(b *testing.B) {
	benchFigure(b, "fig12", func(w io.Writer) error { return harness.Fig12(w, benchOpt) })
}

func BenchmarkFig13MultiGPUNode(b *testing.B) {
	benchFigure(b, "fig13", func(w io.Writer) error { return harness.Fig13(w, benchOpt) })
}

func BenchmarkFig14And15ModelLatency(b *testing.B) {
	benchFigure(b, "fig14", func(w io.Writer) error { return harness.Fig14And15(w, benchOpt) })
}

func BenchmarkFig16And17SyntheticTensors(b *testing.B) {
	benchFigure(b, "fig16", func(w io.Writer) error { return harness.Fig16And17(w, benchOpt) })
}

func BenchmarkFig18AllSIDs(b *testing.B) {
	benchFigure(b, "fig18", func(w io.Writer) error {
		// One CNN + one RNN workload keeps the bench tractable; the
		// sidco-fig binary covers all six.
		return harness.TrainingFigure(w, harness.TrainingFigureConfig{
			Title:     "Fig 18",
			Workloads: []string{"resnet20-cifar10", "lstm-ptb"},
			Opt:       benchOpt,
		})
	})
}

// Ablation benches for the design choices called out in DESIGN.md §4.

func BenchmarkAblationStages(b *testing.B) {
	benchFigure(b, "ab-stages", func(w io.Writer) error { return harness.AblationStages(w, benchOpt) })
}

func BenchmarkAblationDelta1(b *testing.B) {
	benchFigure(b, "ab-delta1", func(w io.Writer) error { return harness.AblationDelta1(w, benchOpt) })
}

func BenchmarkAblationAdapt(b *testing.B) {
	benchFigure(b, "ab-adapt", func(w io.Writer) error { return harness.AblationAdapt(w, benchOpt) })
}

func BenchmarkAblationSID(b *testing.B) {
	benchFigure(b, "ab-sid", func(w io.Writer) error { return harness.AblationSID(w, benchOpt) })
}

func BenchmarkAblationGammaApprox(b *testing.B) {
	benchFigure(b, "ab-gamma", func(w io.Writer) error { return harness.AblationGammaApprox(w, benchOpt) })
}

func BenchmarkAblationEC(b *testing.B) {
	benchFigure(b, "ab-ec", func(w io.Writer) error { return harness.AblationEC(w, harness.Options{Iters: 25, Seed: 7}) })
}

// Raw compressor throughput on this machine (real wall clock, 1M-element
// gradient at delta = 0.001) — the Go-native counterpart of Figure 1.

func rawGrad(dim int) []float64 {
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: 9,
	})
	return gen.Next()
}

func benchCompressor(b *testing.B, c compress.Compressor, delta float64) {
	b.Helper()
	g := rawGrad(1 << 20)
	b.SetBytes(int64(8 * len(g)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.FreshCompress(c, g, delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressTopK(b *testing.B)      { benchCompressor(b, compress.NewTopK(), 0.001) }
func BenchmarkCompressDGC(b *testing.B)       { benchCompressor(b, compress.NewDGC(1), 0.001) }
func BenchmarkCompressRedSync(b *testing.B)   { benchCompressor(b, compress.NewRedSync(), 0.001) }
func BenchmarkCompressGaussianK(b *testing.B) { benchCompressor(b, compress.NewGaussianKSGD(), 0.001) }
func BenchmarkCompressSIDCoE(b *testing.B)    { benchCompressor(b, core.NewE(), 0.001) }
func BenchmarkCompressSIDCoGP(b *testing.B)   { benchCompressor(b, core.NewGammaGP(), 0.001) }
func BenchmarkCompressSIDCoP(b *testing.B)    { benchCompressor(b, core.NewGP(), 0.001) }

// Streaming fast-path throughput: the same compressors through
// CompressInto over reused sparse storage. Run with -benchmem — the
// whole point of the pipeline is the 0 allocs/op column.

func benchCompressInto(b *testing.B, c compress.Compressor, delta float64) {
	b.Helper()
	g := rawGrad(1 << 20)
	dst := &tensor.Sparse{}
	if err := c.CompressInto(dst, g, delta); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(g)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CompressInto(dst, g, delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressIntoTopK(b *testing.B)    { benchCompressInto(b, compress.NewTopK(), 0.001) }
func BenchmarkCompressIntoDGC(b *testing.B)     { benchCompressInto(b, compress.NewDGC(1), 0.001) }
func BenchmarkCompressIntoRedSync(b *testing.B) { benchCompressInto(b, compress.NewRedSync(), 0.001) }
func BenchmarkCompressIntoGaussianK(b *testing.B) {
	benchCompressInto(b, compress.NewGaussianKSGD(), 0.001)
}
func BenchmarkCompressIntoSIDCoE(b *testing.B)  { benchCompressInto(b, core.NewE(), 0.001) }
func BenchmarkCompressIntoSIDCoGP(b *testing.B) { benchCompressInto(b, core.NewGammaGP(), 0.001) }
func BenchmarkCompressIntoSIDCoP(b *testing.B)  { benchCompressInto(b, core.NewGP(), 0.001) }

// Multi-core fan-out: the streaming path at increasing Parallelism for
// the compressors whose passes fan out. Selections are bit-identical at
// every P (pinned by internal/harness tests); this bench shows what the
// fan-out buys on this machine's cores.
func BenchmarkCompressIntoParallel(b *testing.B) {
	factories := []struct {
		name string
		mk   func() compress.Compressor
	}{
		{"topk", func() compress.Compressor { return compress.NewTopK() }},
		{"redsync", func() compress.Compressor { return compress.NewRedSync() }},
		{"sidco-gp", func() compress.Compressor { return core.NewGammaGP() }},
	}
	for _, f := range factories {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/p%d", f.name, p), func(b *testing.B) {
				c := f.mk()
				compress.SetParallelism(c, p)
				benchCompressInto(b, c, 0.001)
			})
		}
	}
}

// BenchmarkCompressIntoEC is the compress layer of the step benchmark's
// two d2m workloads in their steady state: error feedback (the fused
// accumulate arm) over a cycled pool of six d = 2^21 gradients of the
// workload's Table 1 profile, at its ratio. The residual makes every
// step's input differ from the fresh-gradient benches above — this is the
// input the estimator is deployed on. Expected: 0 allocs/op.
func BenchmarkCompressIntoEC(b *testing.B) {
	for _, w := range []struct {
		name, profile string
		mk            func() compress.Compressor
		delta         float64
	}{
		{"sidco-e", "lstm-ptb", func() compress.Compressor { return core.NewE() }, 0.001},
		{"sidco-gp", "vgg19-imagenet", func() compress.Compressor { return core.NewGammaGP() }, 0.01},
	} {
		b.Run(w.name, func(b *testing.B) {
			wl, err := dist.WorkloadByName(w.profile)
			if err != nil {
				b.Fatal(err)
			}
			gen := wl.Grad.Generator(1<<21, 1)
			var pool [6][]float64
			for i := range pool {
				pool[i] = gen.Next()
			}
			ec := compress.NewErrorFeedback(w.mk())
			dst := &tensor.Sparse{}
			step := 0
			next := func() {
				if err := ec.CompressInto(dst, pool[step%len(pool)], w.delta); err != nil {
					b.Fatal(err)
				}
				step++
			}
			for step < 4*len(pool) { // the residual and every scratch buffer settle
				next()
			}
			b.SetBytes(8 << 21)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
		})
	}
}

// exchangeOnly hides an exchange's optional sparse form, as a decorator that
// forwards only Exchange does: the trainer behind it takes the dense route.
type exchangeOnly struct{ inner dist.GradientExchange }

func (x exchangeOnly) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	return x.inner.Exchange(step, ins, agg)
}

// BenchmarkTrainerStep measures one synchronous data-parallel step of a
// dense model with EC+SIDCo compression at d = 267 786 (>= 2^18: large
// enough for what happens after the selection to show), on both routes:
// sparse hands the merged mean of the selections to the optimizer, dense
// (the exchange's sparse form hidden) clears, scatters into and sweeps a
// d-sized aggregate. Same losses, same weights; the difference is the
// three d-sized passes. Also the -benchmem guard on the end-to-end
// zero-allocation pipeline (expected: a handful of goroutine-spawn
// allocations per step, nothing proportional to model or worker state).
func BenchmarkTrainerStep(b *testing.B) {
	const in, hidden, classes, batch, workers = 512, 512, 10, 4, 2
	for _, route := range []struct {
		name     string
		exchange dist.GradientExchange
	}{
		{"sparse", dist.InProcess{}},
		{"dense", exchangeOnly{dist.InProcess{}}},
	} {
		b.Run(route.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			model := nn.NewSequential(
				nn.NewDense("d1", in, hidden, rng),
				&nn.ReLU{},
				nn.NewDense("d2", hidden, classes, rng),
			)
			xs := make([]*nn.Tensor, workers)
			ts := make([][]int, workers)
			for w := range xs {
				xs[w] = nn.NewTensor(batch, in)
				ts[w] = make([]int, batch)
			}
			tr, err := dist.NewTrainer(dist.TrainerConfig{
				Workers: workers,
				Model:   model,
				Loss:    &nn.SoftmaxCrossEntropy{},
				Opt:     &nn.SGD{LR: 0.05},
				Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
					x, targets := xs[worker], ts[worker]
					for i := range targets {
						targets[i] = rng.Intn(classes)
						for j := 0; j < in; j++ {
							x.Data[i*in+j] = rng.NormFloat64()
						}
					}
					return x, targets
				},
				NewCompressor: func() compress.Compressor { return core.NewE() },
				Delta:         0.01,
				EC:            true,
				Seed:          3,
				Exchange:      route.exchange,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := tr.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
