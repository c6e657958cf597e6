package data

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
)

func TestImagesDeterministic(t *testing.T) {
	a := NewImages(ImagesConfig{N: 50, Seed: 1})
	b := NewImages(ImagesConfig{N: 50, Seed: 1})
	if !slices.Equal(a.pixels, b.pixels) {
		t.Fatal("same seed, different pixels")
	}
	if !slices.Equal(a.labels, b.labels) {
		t.Fatal("same seed, different labels")
	}
}

func TestImagesBatchShapes(t *testing.T) {
	d := NewImages(ImagesConfig{N: 100, C: 3, H: 12, W: 12, Classes: 10, Seed: 2})
	if d.N != 100 || len(d.labels) != 100 {
		t.Fatalf("N = %d, %d labels", d.N, len(d.labels))
	}
	rng := rand.New(rand.NewSource(3))
	x, labels := d.Batch(rng, 16)
	if x.Shape[0] != 16 || x.Shape[1] != 3 || x.Shape[2] != 12 || x.Shape[3] != 12 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if len(labels) != 16 {
		t.Fatalf("labels %d", len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestImagesAreLearnable(t *testing.T) {
	// A tiny conv net must do far better than chance quickly.
	d := NewImages(ImagesConfig{N: 400, Classes: 4, Noise: 0.3, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	model := nn.NewSequential(
		nn.NewConv2D("c1", 3, 6, 3, rng),
		&nn.ReLU{},
		&nn.MaxPool2D{},
		&nn.Flatten{},
		nn.NewDense("d1", 6*5*5, 4, rng),
	)
	loss := &nn.SoftmaxCrossEntropy{}
	opt := &nn.SGD{LR: 0.05}
	params := model.Params()
	flat := make([]float64, nn.ParamCount(params))
	for step := 0; step < 150; step++ {
		x, labels := d.Batch(rng, 32)
		nn.BindGrads(params, flat) // a zero gradient for Backward to land in
		loss.Forward(model.Forward(x), labels)
		model.Backward(loss.Backward())
		opt.StepFlat(params, flat)
	}
	x := &nn.Tensor{Shape: []int{d.N, d.C, d.H, d.W}, Data: d.pixels}
	y := model.Forward(x)
	correct := 0
	for n, label := range d.labels {
		row := y.Data[4*n : 4*n+4]
		if slices.Index(row, slices.Max(row)) == label {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.N); acc < 0.6 {
		t.Errorf("accuracy after training = %v, want > 0.6 (chance 0.25)", acc)
	}
}

func TestCorpusBatchAndTargets(t *testing.T) {
	c := NewCorpus(CorpusConfig{Tokens: 5000, Vocab: 30, Seed: 6})
	if len(c.tokens) != 5000 || c.Vocab != 30 {
		t.Fatalf("corpus meta wrong")
	}
	rng := rand.New(rand.NewSource(7))
	x, targets := c.Batch(rng, 4, 10)
	if x.Shape[0] != 4 || x.Shape[1] != 10 || len(targets) != 40 {
		t.Fatalf("batch shapes wrong: %v %d", x.Shape, len(targets))
	}
	for i, v := range x.Data {
		tok := int(v)
		if tok < 0 || tok >= 30 {
			t.Fatalf("token out of vocab: %v", v)
		}
		if targets[i] < 0 || targets[i] >= 30 {
			t.Fatalf("target out of vocab: %d", targets[i])
		}
	}
}

func TestCorpusHasLearnableStructure(t *testing.T) {
	// A bigram table (the optimal first-order model) must beat the uniform
	// baseline decisively: verify the Markov structure exists.
	c := NewCorpus(CorpusConfig{Tokens: 50000, Vocab: 20, Seed: 8})
	counts := make([][]float64, 20)
	for i := range counts {
		counts[i] = make([]float64, 20)
	}
	for i := 0; i+1 < len(c.tokens); i++ {
		counts[c.tokens[i]][c.tokens[i+1]]++
	}
	// Mean max-transition probability across rows.
	sum := 0.0
	for _, row := range counts {
		total, max := 0.0, 0.0
		for _, v := range row {
			total += v
			if v > max {
				max = v
			}
		}
		if total > 0 {
			sum += max / total
		}
	}
	if avg := sum / 20; avg < 0.3 {
		t.Errorf("mean argmax transition prob = %v; corpus too random to learn", avg)
	}
}
