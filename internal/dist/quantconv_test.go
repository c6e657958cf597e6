package dist

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/encoding"
	"repro/internal/nn"
)

// quantTrainer builds the conv workload with an optional EC wire format.
func quantTrainer(t *testing.T, wire *encoding.Format, seed int64) *Trainer {
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
	tr, err := NewTrainer(TrainerConfig{
		Workers: 2,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return ds.Batch(rng, 16)
		},
		NewCompressor: func() compress.Compressor { return compress.NewTopK() },
		Delta:         0.05,
		EC:            true,
		ECWire:        wire,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestQuantizedWireConverges trains the conv workload over each lossy
// EC wire and requires the final loss within a small tolerance of the
// fp64-wire run: the rounding residual is fed back, so narrower values do
// not change where training lands, only its rounding path.
func TestQuantizedWireConverges(t *testing.T) {
	const iters = 60
	run := func(t *testing.T, wire *encoding.Format) []float64 {
		losses, _, err := quantTrainer(t, wire, 9).Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	ref := run(t, nil)
	refTail := mean(ref[iters-10:])
	for _, wire := range []encoding.Format{encoding.FormatPairsBF16, encoding.FormatBitmap} {
		t.Run(wire.String(), func(t *testing.T) {
			quant := run(t, &wire)
			quantTail := mean(quant[iters-10:])
			if quantTail > refTail*1.10+0.02 {
				t.Errorf("%v wire final loss %v, fp64 wire %v: more than 10%% worse", wire, quantTail, refTail)
			}
			// And it must actually have trained.
			if head := mean(quant[:10]); quantTail >= head {
				t.Errorf("%v wire loss did not decrease: first-10 mean %v, last-10 mean %v", wire, head, quantTail)
			}
		})
	}
}
