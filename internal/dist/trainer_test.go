package dist

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/encoding"
	"repro/internal/nn"
)

// convTrainer builds the quickstart-sized conv workload: a small conv
// net on synthetic class-textured images.
func convTrainer(t *testing.T, workers int, comp string, delta float64, ec bool, seed int64, tap func(int, []float64)) *Trainer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewSequential(
		nn.NewConv2D("c1", 3, 6, 3, rng),
		&nn.ReLU{},
		&nn.MaxPool2D{},
		&nn.Flatten{},
		nn.NewDense("d1", 6*5*5, 10, rng),
	)
	ds := data.NewImages(data.ImagesConfig{N: 256, Classes: 10, Seed: seed})
	var factory func() compress.Compressor
	switch comp {
	case "":
	case "topk":
		factory = func() compress.Compressor { return compress.NewTopK() }
	case "redsync":
		factory = func() compress.Compressor { return compress.NewRedSync() }
	case "sidco-e":
		factory = func() compress.Compressor { return core.NewE() }
	case "sidco-gp":
		factory = func() compress.Compressor { return core.NewGammaGP() }
	case "sidco-p":
		factory = func() compress.Compressor { return core.NewGP() }
	default:
		t.Fatalf("unknown compressor %q", comp)
	}
	tr, err := NewTrainer(TrainerConfig{
		Workers: workers,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return ds.Batch(rng, 16)
		},
		NewCompressor: factory,
		Delta:         delta,
		EC:            ec,
		Seed:          seed,
		OnGradient:    tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	// Two independent trainers with the same seed and 4 concurrent
	// workers must produce bit-identical losses, ratios and weights.
	run := func() ([]float64, []float64, []float64) {
		tr := convTrainer(t, 4, "topk", 0.01, true, 3, nil)
		losses, ratios, err := tr.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		return losses, ratios, nn.FlattenWeights(tr.cfg.Model.Params(), nil)
	}
	l1, r1, w1 := run()
	l2, r2, w2 := run()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("loss[%d] differs: %v vs %v", i, l1[i], l2[i])
		}
		if r1[i] != r2[i] {
			t.Fatalf("ratio[%d] differs: %v vs %v", i, r1[i], r2[i])
		}
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight[%d] differs: %v vs %v", i, w1[i], w2[i])
		}
	}
}

func TestLossDecreasesOnConvWorkload(t *testing.T) {
	tr := convTrainer(t, 2, "", 0, false, 1, nil)
	losses, ratios, err := tr.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	head := mean(losses[:10])
	tail := mean(losses[50:])
	if tail >= head {
		t.Errorf("loss did not decrease: first-10 mean %v, last-10 mean %v", head, tail)
	}
	for i, r := range ratios {
		if r != 1 {
			t.Fatalf("dense run ratio[%d] = %v, want 1", i, r)
		}
	}
}

func TestTopKRatioIsExact(t *testing.T) {
	tr := convTrainer(t, 2, "topk", 0.01, false, 2, nil)
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if tr.LastRatio != 1 {
		t.Errorf("exact Top-k should achieve k-hat/k = 1, got %v", tr.LastRatio)
	}
}

// TestECAccumulatesResiduals checks the purpose of error feedback: with
// EC, the cumulative weight movement of a compressed run tracks the
// uncompressed run's direction better than without EC, because
// suppressed gradient mass is re-injected instead of lost.
func TestECAccumulatesResiduals(t *testing.T) {
	const iters = 50
	final := func(comp string, delta float64, ec bool) []float64 {
		tr := convTrainer(t, 2, comp, delta, ec, 5, nil)
		w0 := nn.FlattenWeights(tr.cfg.Model.Params(), nil)
		if _, _, err := tr.Run(iters); err != nil {
			t.Fatal(err)
		}
		w1 := nn.FlattenWeights(tr.cfg.Model.Params(), nil)
		for i := range w1 {
			w1[i] -= w0[i]
		}
		return w1 // total weight movement
	}
	dense := final("", 0, false)
	withEC := final("topk", 0.01, true)
	without := final("topk", 0.01, false)
	if c1, c2 := cosine(withEC, dense), cosine(without, dense); c1 <= c2 {
		t.Errorf("EC update direction should track the dense run better: cos(EC)=%v <= cos(noEC)=%v", c1, c2)
	}
}

func TestOnGradientTapSeesEveryIteration(t *testing.T) {
	var iters []int
	var dims []int
	tap := func(i int, g []float64) {
		iters = append(iters, i)
		dims = append(dims, len(g))
	}
	tr := convTrainer(t, 2, "topk", 0.05, false, 4, tap)
	if _, _, err := tr.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 5 {
		t.Fatalf("tap called %d times, want 5", len(iters))
	}
	for i, it := range iters {
		if it != i {
			t.Errorf("tap iteration %d reported as %d", i, it)
		}
		if dims[i] != tr.Dim() {
			t.Errorf("tap gradient length %d, want %d", dims[i], tr.Dim())
		}
	}
}

// TestFirstWorkerReproducesGlobalStreams pins the contract behind
// multi-process training: a Workers=1 trainer with FirstWorker=r must
// hand its Batch callback global worker id r and the exact RNG stream
// worker r of a full-width trainer draws — so the union of per-process
// trainers consumes the same batches as one in-process trainer.
func TestFirstWorkerReproducesGlobalStreams(t *testing.T) {
	const seed, steps = 5, 3
	draws := func(workers, firstWorker int) map[int][]float64 {
		rng := rand.New(rand.NewSource(seed))
		model := nn.NewSequential(nn.NewDense("d", 4, 2, rng))
		got := map[int][]float64{}
		var mu sync.Mutex // Batch runs concurrently across workers
		tr, err := NewTrainer(TrainerConfig{
			Workers: workers,
			Model:   model,
			Loss:    &nn.SoftmaxCrossEntropy{},
			Opt:     &nn.SGD{LR: 0.01},
			Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
				mu.Lock()
				got[worker] = append(got[worker], rng.Float64())
				mu.Unlock()
				x := nn.NewTensor(1, 4)
				return x, []int{0}
			},
			Seed:        seed,
			FirstWorker: firstWorker,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Run(steps); err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := draws(3, 0)
	if len(full) != 3 {
		t.Fatalf("full trainer drew for %d workers, want 3", len(full))
	}
	for rank := 0; rank < 3; rank++ {
		solo := draws(1, rank)
		stream, ok := solo[rank]
		if !ok {
			t.Fatalf("FirstWorker=%d trainer passed ids %v to Batch, want [%d]", rank, solo, rank)
		}
		if len(stream) != steps {
			t.Fatalf("rank %d drew %d batches, want %d", rank, len(stream), steps)
		}
		for i := range stream {
			if stream[i] != full[rank][i] {
				t.Fatalf("rank %d draw %d = %v, full trainer's worker %d drew %v (streams must match)",
					rank, i, stream[i], rank, full[rank][i])
			}
		}
	}
	if _, err := NewTrainer(TrainerConfig{Workers: 1, FirstWorker: -1}); err == nil {
		t.Error("negative FirstWorker should error")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(nn.NewDense("d", 4, 2, rng))
	batch := func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
		return nn.NewTensor(1, 4), []int{0}
	}
	valid := TrainerConfig{
		Workers: 2, Model: model, Loss: &nn.SoftmaxCrossEntropy{},
		Opt: &nn.SGD{LR: 0.1}, Batch: batch,
	}
	if _, err := NewTrainer(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(c *TrainerConfig)
	}{
		{"zero workers", func(c *TrainerConfig) { c.Workers = 0 }},
		{"nil model", func(c *TrainerConfig) { c.Model = nil }},
		{"nil loss", func(c *TrainerConfig) { c.Loss = nil }},
		{"nil opt", func(c *TrainerConfig) { c.Opt = nil }},
		{"nil batch", func(c *TrainerConfig) { c.Batch = nil }},
		{"bad delta", func(c *TrainerConfig) {
			c.NewCompressor = func() compress.Compressor { return compress.NewTopK() }
			c.Delta = 0
		}},
		{"delta above one", func(c *TrainerConfig) {
			c.NewCompressor = func() compress.Compressor { return compress.NewTopK() }
			c.Delta = 1.5
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := valid
			c.mutate(&cfg)
			if _, err := NewTrainer(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}

	// Settings that used to be dropped silently: a lossy wire configured
	// this way shipped values the receiver rounded and nobody fed back. The
	// refusal names the fields to fix.
	wire := encoding.FormatPairsBF16
	topk := func() compress.Compressor { return compress.NewTopK() }
	for _, c := range []struct {
		name   string
		mutate func(c *TrainerConfig)
		names  []string // what the message must mention; nil: accepted
	}{
		{"EC without a compressor", func(c *TrainerConfig) { c.EC = true }, []string{"EC", "NewCompressor"}},
		{"ECWire without EC", func(c *TrainerConfig) { c.NewCompressor, c.Delta, c.ECWire = topk, 0.5, &wire }, []string{"ECWire", "EC"}},
		{"ECWire without anything", func(c *TrainerConfig) { c.ECWire = &wire }, []string{"ECWire", "EC"}},
		{"EC with a compressor", func(c *TrainerConfig) { c.NewCompressor, c.Delta, c.EC = topk, 0.5, true }, nil},
		{"ECWire with EC", func(c *TrainerConfig) { c.NewCompressor, c.Delta, c.EC, c.ECWire = topk, 0.5, true, &wire }, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := valid
			c.mutate(&cfg)
			_, err := NewTrainer(cfg)
			if c.names == nil {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("config that silently ignores a field accepted")
			}
			for _, name := range c.names {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name %s", err, name)
				}
			}
		})
	}
}

// TestTrainerResolvesRouteOnce pins when the step stays sparse after the
// selection: only with a compressor on every worker, an exchange that can
// hand back a merged sparse mean and an optimizer that can apply one. The
// dense aggregate exists only once a dense round has needed it.
func TestTrainerResolvesRouteOnce(t *testing.T) {
	cases := []struct {
		name   string
		comp   string
		mutate func(tr *Trainer)
		sparse bool
	}{
		{"sgd over the in-process reducer", "topk", func(*Trainer) {}, true},
		{"no compressor", "", func(*Trainer) {}, false},
		{"exchange without the sparse form", "topk", func(tr *Trainer) { tr.useExchange(&exchangeRecorder{}) }, false},
		{"sgd with weight decay", "topk", func(tr *Trainer) {
			tr.cfg.Opt = &nn.SGD{LR: 0.05, WeightDecay: 1e-4}
			tr.useExchange(tr.exchange)
		}, false},
		{"momentum", "topk", func(tr *Trainer) {
			tr.cfg.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9}
			tr.useExchange(tr.exchange)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := convTrainer(t, 2, tc.comp, 0.05, false, 6, nil)
			tc.mutate(tr)
			if got := tr.sparseEx != nil && tr.sparseOpt != nil; got != tc.sparse {
				t.Fatalf("sparse route resolved = %v, want %v", got, tc.sparse)
			}
			if tr.agg != nil {
				t.Error("dense aggregate allocated before any round")
			}
			if _, _, err := tr.Run(2); err != nil {
				t.Fatal(err)
			}
			if got := tr.agg != nil; got == tc.sparse {
				t.Errorf("dense aggregate allocated = %v after two rounds on the sparse=%v route", got, tc.sparse)
			}
		})
	}
}

func TestDimMatchesParamCount(t *testing.T) {
	tr := convTrainer(t, 1, "", 0, false, 1, nil)
	if got, want := tr.Dim(), nn.ParamCount(tr.cfg.Model.Params()); got != want {
		t.Errorf("Dim() = %d, want %d", got, want)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return dot / math.Sqrt(na*nb)
}
