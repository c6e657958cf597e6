// Language modelling with gradient compression: an LSTM next-token model
// on a synthetic Markov corpus, trained by 4 workers with SIDCo at an
// aggressive ratio (delta = 0.001) plus error feedback — the PTB
// experiment of the paper in miniature, reporting perplexity.
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

func main() {
	const (
		vocab  = 30
		embDim = 16
		hidden = 64
		seqLen = 12
		iters  = 200
	)
	rng := rand.New(rand.NewSource(11))
	model := nn.NewSequential(
		nn.NewEmbedding("emb", vocab, embDim, rng),
		nn.NewLSTM("lstm", embDim, hidden, rng),
		nn.NewTimeDistributed(nn.NewDense("out", hidden, vocab, rng)),
	)
	corpus := data.NewCorpus(data.CorpusConfig{Tokens: 50_000, Vocab: vocab, Seed: 11})

	sidco := func() compress.Compressor { return core.NewE() }
	trainer, err := dist.NewTrainer(dist.TrainerConfig{
		Workers: 4,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.Momentum{LR: 0.2, Mu: 0.9},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return corpus.Batch(rng, 8, seqLen)
		},
		NewCompressor: sidco,
		Delta:         0.001,
		EC:            true,
		ClipNorm:      5,
		Seed:          11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("LSTM LM: %d parameters, 4 workers, delta=0.001, SIDCo-E + EC\n\n", trainer.Dim())
	for i := 0; i < iters; i++ {
		loss, err := trainer.Step()
		if err != nil {
			log.Fatal(err)
		}
		if (i+1)%25 == 0 {
			fmt.Printf("iter %4d  loss %.4f  perplexity %8.2f  k-hat/k %.3f\n",
				i+1, loss, nn.Perplexity(loss), trainer.LastRatio)
		}
	}
	fmt.Println("\nOnly 0.1% of the gradient crosses the wire each iteration; error")
	fmt.Println("feedback re-injects the suppressed mass so perplexity still falls.")
}
