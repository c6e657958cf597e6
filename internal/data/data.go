// Package data provides deterministic synthetic datasets standing in for
// the paper's benchmarks: class-conditional images (CIFAR-10 / ImageNet
// stand-in) and a Zipfian Markov token corpus (PTB stand-in). The tasks
// are learnable but noisy, so training-loss curves have the
// monotone-but-slowing shape real benchmarks show, and they degrade under
// bad gradient compression exactly as the paper's Figure 4 illustrates.
package data

import (
	"math"
	"math/rand"

	"repro/internal/nn"
)

// Images is a synthetic image-classification dataset: each class has a
// characteristic 2-D sinusoidal texture, and samples are the class texture
// plus Gaussian pixel noise.
type Images struct {
	N, C, H, W, Classes int

	pixels []float64 // [N, C, H, W]
	labels []int
}

// ImagesConfig parameterises NewImages.
type ImagesConfig struct {
	// N is the number of samples.
	N int
	// C, H, W are channel/height/width (CIFAR-like default 3x12x12 when
	// zero).
	C, H, W int
	// Classes is the number of classes (default 10).
	Classes int
	// Noise is the pixel noise standard deviation (default 0.6: hard
	// enough that learning takes many iterations).
	Noise float64
	// Seed fixes the dataset.
	Seed int64
}

// NewImages builds the dataset.
func NewImages(cfg ImagesConfig) *Images {
	if cfg.C == 0 {
		cfg.C = 3
	}
	if cfg.H == 0 {
		cfg.H = 12
	}
	if cfg.W == 0 {
		cfg.W = 12
	}
	if cfg.Classes == 0 {
		cfg.Classes = 10
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Images{
		N: cfg.N, C: cfg.C, H: cfg.H, W: cfg.W, Classes: cfg.Classes,
		pixels: make([]float64, cfg.N*cfg.C*cfg.H*cfg.W),
		labels: make([]int, cfg.N),
	}
	vol := cfg.C * cfg.H * cfg.W
	// Class-specific frequency/phase per channel.
	type pat struct{ fx, fy, phase float64 }
	pats := make([][]pat, cfg.Classes)
	for cl := range pats {
		pats[cl] = make([]pat, cfg.C)
		for ch := range pats[cl] {
			pats[cl][ch] = pat{
				fx:    1 + rng.Float64()*3,
				fy:    1 + rng.Float64()*3,
				phase: rng.Float64() * 2 * math.Pi,
			}
		}
	}
	for n := 0; n < cfg.N; n++ {
		cl := rng.Intn(cfg.Classes)
		d.labels[n] = cl
		for ch := 0; ch < cfg.C; ch++ {
			p := pats[cl][ch]
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					signal := math.Sin(p.fx*float64(x)/float64(cfg.W)*2*math.Pi+p.phase) *
						math.Cos(p.fy*float64(y)/float64(cfg.H)*2*math.Pi)
					d.pixels[n*vol+(ch*cfg.H+y)*cfg.W+x] = signal + rng.NormFloat64()*cfg.Noise
				}
			}
		}
	}
	return d
}

// Batch samples a batch of the given size (with replacement) using rng and
// returns the pixel tensor [B, C, H, W] and the labels.
func (d *Images) Batch(rng *rand.Rand, size int) (*nn.Tensor, []int) {
	x := nn.NewTensor(size, d.C, d.H, d.W)
	labels := make([]int, size)
	vol := d.C * d.H * d.W
	for b := 0; b < size; b++ {
		n := rng.Intn(d.N)
		copy(x.Data[b*vol:(b+1)*vol], d.pixels[n*vol:(n+1)*vol])
		labels[b] = d.labels[n]
	}
	return x, labels
}

// Corpus is a synthetic token stream from a Zipfian first-order Markov
// chain, the PTB stand-in for language modelling: next-token prediction
// with learnable bigram structure.
type Corpus struct {
	Vocab  int
	tokens []int
}

// CorpusConfig parameterises NewCorpus.
type CorpusConfig struct {
	// Tokens is the stream length.
	Tokens int
	// Vocab is the vocabulary size (default 50).
	Vocab int
	// Skew is the Zipf exponent of the transition rows (default 1.2;
	// higher is more predictable).
	Skew float64
	// Seed fixes the corpus.
	Seed int64
}

// NewCorpus builds the token stream.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.Vocab == 0 {
		cfg.Vocab = 50
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Each row is a Zipf distribution over a randomly permuted successor
	// set: structure a model can learn, with realistic long-tail noise.
	zipf := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Vocab-1))
	perms := make([][]int, cfg.Vocab)
	for v := range perms {
		perms[v] = rng.Perm(cfg.Vocab)
	}
	c := &Corpus{Vocab: cfg.Vocab, tokens: make([]int, cfg.Tokens)}
	cur := 0
	for i := range c.tokens {
		c.tokens[i] = cur
		cur = perms[cur][int(zipf.Uint64())]
	}
	return c
}

// Batch samples contiguous windows: x is [B, T] token ids, targets are the
// next tokens (one per position, length B*T).
func (c *Corpus) Batch(rng *rand.Rand, batch, T int) (*nn.Tensor, []int) {
	x := nn.NewTensor(batch, T)
	targets := make([]int, batch*T)
	for b := 0; b < batch; b++ {
		start := rng.Intn(len(c.tokens) - T - 1)
		for t := 0; t < T; t++ {
			x.Data[b*T+t] = float64(c.tokens[start+t])
			targets[b*T+t] = c.tokens[start+t+1]
		}
	}
	return x, targets
}
