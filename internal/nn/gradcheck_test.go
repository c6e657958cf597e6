package nn

import (
	"math"
	"math/rand"
	"testing"
)

// lossOf runs a full forward pass and returns the scalar loss.
func lossOf(model Layer, loss Loss, x *Tensor, targets []int) float64 {
	return loss.Forward(model.Forward(clone(x)), targets)
}

// clone deep-copies x, so no pass aliases the input the checks perturb.
func clone(x *Tensor) *Tensor {
	return &Tensor{Shape: append([]int(nil), x.Shape...), Data: append([]float64(nil), x.Data...)}
}

// zeroGrad clears every parameter's own (unbound) gradient.
func zeroGrad(model Layer) {
	for _, p := range model.Params() {
		clear(p.G)
	}
}

// checkParamGradients verifies every parameter gradient of model against
// central finite differences of the loss. It checks up to maxPerParam
// randomly chosen coordinates per parameter.
func checkParamGradients(t *testing.T, model Layer, loss Loss, x *Tensor, targets []int, maxPerParam int, tol float64) {
	t.Helper()
	// Analytic gradients.
	zeroGrad(model)
	l := loss.Forward(model.Forward(clone(x)), targets)
	if math.IsNaN(l) {
		t.Fatal("loss is NaN")
	}
	model.Backward(loss.Backward())

	rng := rand.New(rand.NewSource(99))
	const h = 1e-5
	for _, p := range model.Params() {
		analytic := append([]float64(nil), p.G...)
		n := len(p.W)
		checks := maxPerParam
		if checks > n {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := rng.Intn(n)
			orig := p.W[i]
			p.W[i] = orig + h
			lp := lossOf(model, loss, x, targets)
			p.W[i] = orig - h
			lm := lossOf(model, loss, x, targets)
			p.W[i] = orig
			numeric := (lp - lm) / (2 * h)
			diff := math.Abs(numeric - analytic[i])
			scale := math.Max(1e-4, math.Max(math.Abs(numeric), math.Abs(analytic[i])))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic[i], numeric)
			}
		}
	}
}

// checkInputGradients verifies dL/dx against finite differences.
func checkInputGradients(t *testing.T, model Layer, loss Loss, x *Tensor, targets []int, maxChecks int, tol float64) {
	t.Helper()
	zeroGrad(model)
	loss.Forward(model.Forward(clone(x)), targets)
	gradIn := model.Backward(loss.Backward())

	rng := rand.New(rand.NewSource(98))
	const h = 1e-5
	checks := maxChecks
	if checks > x.Len() {
		checks = x.Len()
	}
	for c := 0; c < checks; c++ {
		i := rng.Intn(x.Len())
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(model, loss, x, targets)
		x.Data[i] = orig - h
		lm := lossOf(model, loss, x, targets)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		diff := math.Abs(numeric - gradIn.Data[i])
		scale := math.Max(1e-4, math.Max(math.Abs(numeric), math.Abs(gradIn.Data[i])))
		if diff/scale > tol {
			t.Errorf("input[%d]: analytic %v vs numeric %v", i, gradIn.Data[i], numeric)
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func randTargets(rng *rand.Rand, n, classes int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(classes)
	}
	return out
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(NewDense("d1", 7, 5, rng))
	x := randTensor(rng, 4, 7)
	targets := randTargets(rng, 4, 5)
	checkParamGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 20, 1e-4)
	checkInputGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 20, 1e-4)
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewSequential(
		NewDense("d1", 6, 8, rng),
		&ReLU{},
		NewDense("d2", 8, 8, rng),
		&ReLU{},
		NewDense("d3", 8, 3, rng),
	)
	x := randTensor(rng, 5, 6)
	targets := randTargets(rng, 5, 3)
	checkParamGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 15, 2e-4)
	checkInputGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 15, 2e-4)
}

func TestConvNetGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := NewSequential(
		NewConv2D("c1", 2, 3, 3, rng),
		&ReLU{},
		&MaxPool2D{},
		&Flatten{},
		NewDense("d1", 3*3*3, 4, rng),
	)
	x := randTensor(rng, 2, 2, 8, 8)
	targets := randTargets(rng, 2, 4)
	checkParamGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 15, 3e-4)
	checkInputGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 15, 3e-4)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lstm := NewLSTM("l1", 3, 4, rng)
	model := NewSequential(lstm, NewTimeDistributed(NewDense("out", 4, 3, rng)))
	x := randTensor(rng, 2, 5, 3)
	targets := randTargets(rng, 2*5, 3)
	checkParamGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 20, 3e-4)
	checkInputGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 20, 3e-4)
}

func TestEmbeddingLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := NewSequential(
		NewEmbedding("emb", 10, 4, rng),
		NewLSTM("l1", 4, 5, rng),
		NewTimeDistributed(NewDense("out", 5, 10, rng)),
	)
	// Token-id input.
	x := NewTensor(2, 4)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(10))
	}
	targets := randTargets(rng, 2*4, 10)
	checkParamGradients(t, model, &SoftmaxCrossEntropy{}, x, targets, 20, 3e-4)
}

func TestMSEGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := NewSequential(NewDense("d1", 3, 2, rng))
	x := randTensor(rng, 4, 3)
	loss := &mse{values: make([]float64, 8)}
	for i := range loss.values {
		loss.values[i] = rng.NormFloat64()
	}
	checkParamGradients(t, model, loss, x, nil, 10, 1e-4)
	checkInputGradients(t, model, loss, x, nil, 10, 1e-4)
}

func TestXentIgnoresPaddedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	y := randTensor(rng, 4, 3)
	loss := &SoftmaxCrossEntropy{}
	full := loss.Forward(y, []int{0, 1, 2, 0})
	masked := loss.Forward(y, []int{0, 1, -1, -1})
	if math.IsNaN(full) || math.IsNaN(masked) {
		t.Fatal("NaN loss")
	}
	grad := loss.Backward()
	// Gradient rows for masked targets must be zero.
	for j := 2 * 3; j < 4*3; j++ {
		if grad.Data[j] != 0 {
			t.Fatalf("masked row has gradient: %v", grad.Data[j])
		}
	}
	// All-masked batch gives zero loss and gradient.
	zero := loss.Forward(y, []int{-1, -1, -1, -1})
	if zero != 0 {
		t.Errorf("all-masked loss = %v", zero)
	}
}

// mse is the mean squared error loss against fixed regression values (the
// targets argument is unused): the loss of the quadratic optimizer tests.
type mse struct {
	y, grad *Tensor
	values  []float64
}

func (*mse) Name() string { return "mse" }

func (m *mse) Forward(y *Tensor, _ []int) float64 {
	m.y = y
	sum := 0.0
	for i, v := range y.Data {
		d := v - m.values[i]
		sum += d * d
	}
	return sum / float64(y.Len())
}

func (m *mse) Backward() *Tensor {
	grad := ensure(&m.grad, m.y.Shape...)
	inv := 2.0 / float64(m.y.Len())
	for i, v := range m.y.Data {
		grad.Data[i] = (v - m.values[i]) * inv
	}
	return grad
}
