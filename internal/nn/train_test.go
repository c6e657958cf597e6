package nn

import (
	"math"
	"math/rand"
	"testing"
)

// xorBatch builds the classic XOR classification problem.
func xorBatch() (*Tensor, []int) {
	x := NewTensor(4, 2)
	copy(x.Data, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	return x, []int{0, 1, 1, 0}
}

// stepLocal applies one update from each parameter's own G: it flattens
// the gradients, hands them to StepFlat and clears G.
func stepLocal(opt Optimizer, params []*Param) {
	flat := make([]float64, 0, ParamCount(params))
	for _, p := range params {
		flat = append(flat, p.G...)
	}
	opt.StepFlat(params, flat)
	for _, p := range params {
		clear(p.G)
	}
}

func trainSteps(model *Sequential, loss Loss, opt Optimizer, x *Tensor, targets []int, steps int) float64 {
	var l float64
	for i := 0; i < steps; i++ {
		zeroGrad(model)
		l = loss.Forward(model.Forward(clone(x)), targets)
		model.Backward(loss.Backward())
		stepLocal(opt, model.Params())
	}
	return l
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	model := NewSequential(
		NewDense("d1", 2, 8, rng),
		&ReLU{},
		NewDense("d2", 8, 2, rng),
	)
	x, targets := xorBatch()
	loss := &SoftmaxCrossEntropy{}
	final := trainSteps(model, loss, &SGD{LR: 0.5}, x, targets, 800)
	if final > 0.05 {
		t.Fatalf("XOR loss after training = %v", final)
	}
	y := model.Forward(clone(x))
	for r, want := range targets {
		if row := y.Data[2*r : 2*r+2]; (row[1] > row[0]) != (want == 1) {
			t.Fatalf("XOR row %d: logits %v, want class %d", r, row, want)
		}
	}
}

func TestMomentumFasterThanSGDOnQuadratic(t *testing.T) {
	// On an ill-conditioned quadratic (linear regression), momentum should
	// reach a lower loss than plain SGD in the same step budget.
	build := func(seed int64) (*Sequential, *mse, *Tensor) {
		rng := rand.New(rand.NewSource(seed))
		model := NewSequential(NewDense("d", 4, 1, rng))
		x := NewTensor(16, 4)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		// Stretch one input dimension to worsen conditioning.
		for r := 0; r < 16; r++ {
			x.Data[r*4] *= 8
		}
		loss := &mse{values: make([]float64, 16)}
		for i := range loss.values {
			loss.values[i] = x.Data[i*4]*0.5 - x.Data[i*4+1]
		}
		return model, loss, x
	}

	model1, loss1, x1 := build(11)
	l1 := trainSteps(model1, loss1, &SGD{LR: 0.002}, x1, nil, 300)
	model2, loss2, x2 := build(11)
	l2 := trainSteps(model2, loss2, &Momentum{LR: 0.002, Mu: 0.9}, x2, nil, 300)
	if l2 >= l1 {
		t.Errorf("nesterov %v not better than sgd %v", l2, l1)
	}
}

// TestStepSparseMatchesStepFlat holds SGD.StepSparse to StepFlat over the
// scattered vector, on math.Float64bits, for the selections that could
// tell them apart: an index on each side of a parameter boundary, the last
// element, an empty selection, a whole parameter skipped, and -0 values
// (on a +0 and on a -0 weight).
func TestStepSparseMatchesStepFlat(t *testing.T) {
	negZero := math.Copysign(0, -1)
	build := func() []*Param {
		rng := rand.New(rand.NewSource(21))
		params := []*Param{newParam("a", 3), newParam("b", 1), newParam("c", 2, 2)}
		for _, p := range params {
			for i := range p.W {
				p.W[i] = rng.NormFloat64()
			}
		}
		params[0].W[1] = 0
		params[2].W[0] = negZero
		return params
	}
	cases := []struct {
		name string
		idx  []int32
		vals []float64
	}{
		{"empty", nil, nil},
		{"boundary", []int32{2, 3, 4}, []float64{0.5, -1.5, 2.5}},
		{"last element", []int32{7}, []float64{-3}},
		{"skips a parameter", []int32{0, 6}, []float64{1, 1e-300}},
		{"negative zeros", []int32{1, 4, 5}, []float64{negZero, negZero, negZero}},
		{"every element", []int32{0, 1, 2, 3, 4, 5, 6, 7}, []float64{1, negZero, 0, -2, 0, 3, -4, 5}},
	}
	opt := &SGD{LR: 0.1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sparse, dense := build(), build()
			flat := make([]float64, ParamCount(dense))
			for i, j := range tc.idx {
				flat[j] = tc.vals[i]
			}
			opt.StepSparse(sparse, tc.idx, tc.vals)
			opt.StepFlat(dense, flat)
			bitsEqual(t, "weights", FlattenWeights(sparse, nil), FlattenWeights(dense, nil))
		})
	}
}

// TestStepSpanMatchesStepFlat holds StepSpan to StepFlat on
// math.Float64bits: the vector cut into disjoint spans — one inside a
// parameter, ones across a boundary, an empty one, the whole vector — and
// the spans applied out of order, over three steps so momentum carries
// velocity from one to the next, for both optimizers; Nesterov momentum
// runs at two settings, the paper's Mu = 0.9 and a heavier Mu = 0.99.
func TestStepSpanMatchesStepFlat(t *testing.T) {
	build := func() []*Param {
		rng := rand.New(rand.NewSource(21))
		params := []*Param{newParam("a", 3), newParam("b", 1), newParam("c", 2, 2)}
		for _, p := range params {
			for i := range p.W {
				p.W[i] = rng.NormFloat64()
			}
		}
		return params
	}
	cuts := map[string][][2]int{
		"whole":    {{0, 8}},
		"boundary": {{5, 8}, {2, 5}, {0, 2}},
		"inside":   {{4, 4}, {6, 8}, {1, 2}, {0, 1}, {3, 6}, {2, 3}},
	}
	opts := map[string]func() Optimizer{
		"sgd":      func() Optimizer { return &SGD{LR: 0.1} },
		"momentum": func() Optimizer { return &Momentum{LR: 0.1, Mu: 0.9} },
		"nesterov": func() Optimizer { return &Momentum{LR: 0.05, Mu: 0.99} },
	}
	for on, newOpt := range opts {
		for cn, spans := range cuts {
			t.Run(on+"/"+cn, func(t *testing.T) {
				flat, spanned := build(), build()
				fo, so := newOpt(), newOpt()
				rng := rand.New(rand.NewSource(5))
				grad := make([]float64, ParamCount(flat))
				for step := 0; step < 3; step++ {
					for i := range grad {
						grad[i] = rng.NormFloat64()
					}
					fo.StepFlat(flat, grad)
					for _, sp := range spans {
						so.StepSpan(spanned, sp[0], grad[sp[0]:sp[1]])
					}
				}
				bitsEqual(t, "weights", FlattenWeights(spanned, nil), FlattenWeights(flat, nil))
			})
		}
	}
}

// TestSGDStepSpanMatchesOneBlock holds SGD's four-block StepSpan to its
// one-element update over the covered elements, weight by weight by
// nanOrSameBits. A parameter of n weights sits between two small ones
// (n around one block, around one group of four, a group and a tail of
// more than a block, train-sidco-tcp's d and 2^21); the spans are the
// whole vector and ones that begin and end inside a parameter and inside
// a block; the weights and gradient are plain, then salted in each lane.
func TestSGDStepSpanMatchesOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 4*4096 - 1, 4 * 4096, 4*4096 + 1, 5*4096 + 7, 1847306, 1 << 21} {
		for _, salted := range []bool{false, true} {
			params := []*Param{newParam("a", 5), newParam("b", n), newParam("c", 3)}
			d := ParamCount(params)
			w0, grad := make([]float64, d), make([]float64, d)
			for i := range w0 {
				w0[i], grad[i] = rng.NormFloat64(), rng.NormFloat64()*math.Exp(rng.NormFloat64()*4)
			}
			if salted {
				saltLanes(rng, w0)
				saltLanes(rng, grad)
			}
			spans := [][2]int{{0, d}, {3, d - 1}}
			if d > 1005+2100 {
				spans = append(spans, [2]int{1005, d - 2100})
			}
			opt := &SGD{LR: 0.1}
			for _, sp := range spans {
				off, end := sp[0], sp[1]
				want := append([]float64(nil), w0...)
				for i := off; i < end; i++ {
					want[i] -= float64(opt.LR * grad[i])
				}
				at := 0
				for _, p := range params {
					at += copy(p.W, w0[at:])
				}
				opt.StepSpan(params, off, grad[off:end])
				got := FlattenWeights(params, nil)
				for i := range want {
					if !nanOrSameBits(got[i], want[i]) {
						t.Fatalf("n=%d salted=%v span [%d, %d): w[%d] = %v, one element at a time %v", n, salted, off, end, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// saltLanes puts, in every streamBlock of xs, so in each lane of every
// group of four blocks, -0, subnormals, ±Inf and a NaN whose payload
// names the lane.
func saltLanes(rng *rand.Rand, xs []float64) {
	for lo := 0; lo < len(xs); lo += streamBlock {
		nan := math.Float64frombits(0x7ff8000000000001 + uint64(lo/streamBlock%4))
		n := min(streamBlock, len(xs)-lo)
		for _, v := range []float64{math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), nan} {
			xs[lo+rng.Intn(n)] = v
		}
	}
}

// nanOrSameBits is bit equality, except that any NaN meets any NaN: Go
// leaves which payload an add of two NaNs keeps to the compiler.
func nanOrSameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestMomentumIsNotASparseStepper: its velocity decays where the gradient
// is zero, so it must keep getting the dense aggregate.
func TestMomentumIsNotASparseStepper(t *testing.T) {
	var opt Optimizer = &Momentum{LR: 0.1, Mu: 0.9}
	if _, ok := opt.(SparseStepper); ok {
		t.Error("Momentum implements SparseStepper")
	}
}

// benchStepParams is a 2^18-weight model in three spans and a 1 % selection
// of it, the sizes at which the two optimizer forms differ.
func benchStepParams() (params []*Param, idx []int32, vals []float64) {
	rng := rand.New(rand.NewSource(1))
	params = []*Param{newParam("a", 1<<17), newParam("b", 1<<16), newParam("c", 1<<16)}
	dim := ParamCount(params)
	for i := 0; i < dim; i += 100 {
		idx = append(idx, int32(i+rng.Intn(100)))
		vals = append(vals, rng.NormFloat64())
	}
	return params, idx, vals
}

// BenchmarkStepSparse is the optimizer update over a merged sparse mean
// (1 % of 2^18 weights); BenchmarkStepFlat beside it is the same update as
// the dense route pays it, over the scattered vector.
func BenchmarkStepSparse(b *testing.B) {
	params, idx, vals := benchStepParams()
	opt := &SGD{LR: 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.StepSparse(params, idx, vals)
	}
}

func BenchmarkStepFlat(b *testing.B) {
	params, idx, vals := benchStepParams()
	flat := make([]float64, ParamCount(params))
	for i, j := range idx {
		flat[j] = vals[i]
	}
	opt := &SGD{LR: 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.StepFlat(params, flat)
	}
}

// BenchmarkStepFlatDense is the dense apply at train-dense-tcp's shape:
// SGD over the full gradient of 768-1024-1024-10, d = 1 847 306. It moves
// 24 bytes an element: the gradient and the weight read, the weight
// written.
func BenchmarkStepFlatDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := []*Param{newParam("w1", 1024, 768), newParam("b1", 1024), newParam("w2", 1024, 1024),
		newParam("b2", 1024), newParam("w3", 10, 1024), newParam("b3", 10)}
	flat := make([]float64, ParamCount(params))
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	opt := &SGD{LR: 1e-3}
	b.SetBytes(24 * int64(len(flat)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.StepFlat(params, flat)
	}
}

// TestBindGrads pins the flat-gradient contract dist.Trainer relies on:
// after BindGrads each parameter's G is its span of flat in parameter
// order, so a Backward-style accumulation lands in flat and a clear of
// flat clears every parameter's gradient; binding itself clears the span of
// a parameter whose layer accumulates (these: no layer opted them in to
// the unwritten-G contract), whatever the buffer held.
func TestBindGrads(t *testing.T) {
	a := newParam("a", 2, 3)
	b := newParam("b", 4)
	params := []*Param{a, b}
	if ParamCount(params) != 10 {
		t.Fatalf("ParamCount = %d", ParamCount(params))
	}
	flat := make([]float64, 10)
	BindGrads(params, flat)
	for i := range a.G {
		a.G[i] += float64(i + 1)
	}
	for i := range b.G {
		b.G[i] += float64(-(i + 1))
	}
	want := []float64{1, 2, 3, 4, 5, 6, -1, -2, -3, -4}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flat = %v, want %v", flat, want)
		}
	}
	// The spans must not overlap: growing one parameter's G cannot reach
	// into the next parameter's gradient.
	if len(a.G) != 6 || cap(a.G) != 6 || len(b.G) != 4 {
		t.Errorf("spans: len(a.G)=%d cap(a.G)=%d len(b.G)=%d", len(a.G), cap(a.G), len(b.G))
	}
	clear(flat)
	for _, p := range params {
		for i, g := range p.G {
			if g != 0 {
				t.Fatalf("%s.G[%d] = %v after clear(flat)", p.Name, i, g)
			}
		}
	}
	// Rebinding to another buffer moves the alias, and clears it.
	other := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	BindGrads(params, other)
	for i, g := range other {
		if g != 0 {
			t.Fatalf("other[%d] = %v after BindGrads, want an accumulating parameter's span cleared", i, g)
		}
	}
	b.G[3] = 7
	if other[9] != 7 || flat[9] != 0 {
		t.Errorf("rebind: other[9]=%v flat[9]=%v", other[9], flat[9])
	}
	defer func() {
		if recover() == nil {
			t.Error("BindGrads accepted a flat vector of the wrong length")
		}
	}()
	BindGrads(params, make([]float64, 9))
}

// TestBindGradsAdding pins which parameter lists the adding bind takes —
// Dense ones (alone or in a TimeDistributed), each listed once — and that
// it refuses the rest by panicking: an accumulating layer's parameter, a
// Dense listed twice, a buffer of the wrong length.
func TestBindGradsAdding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, rng)
	td := NewTimeDistributed(NewDense("td", 2, 2, rng))
	conv := NewConv2D("c", 1, 2, 3, rng)
	cases := []struct {
		name   string
		params []*Param
		ok     bool
	}{
		{"dense", d.Params(), true},
		{"dense+time-distributed", append(d.Params(), td.Params()...), true},
		{"conv", conv.Params(), false},
		{"dense listed twice", NewSequential(d, &ReLU{}, d).Params(), false},
	}
	for _, tc := range cases {
		if got := CanBindAdding(tc.params); got != tc.ok {
			t.Errorf("%s: CanBindAdding = %v, want %v", tc.name, got, tc.ok)
		}
		acc := make([]float64, ParamCount(tc.params))
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			BindGradsAdding(tc.params, acc, nil)
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("%s: BindGradsAdding panicked = %v, want %v", tc.name, panicked, !tc.ok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BindGradsAdding accepted a buffer of the wrong length")
		}
	}()
	BindGradsAdding(d.Params(), make([]float64, 7), nil)
}

// TestClipGradNorm: ClipFlatNorm rescales a flat gradient to the norm
// bound and leaves one inside it alone.
func TestClipGradNorm(t *testing.T) {
	flat := []float64{3, 4} // norm 5
	if pre := ClipFlatNorm(flat, 1); pre != 5 {
		t.Errorf("pre-clip norm = %v", pre)
	}
	if math.Abs(flat[0]-0.6) > 1e-12 || math.Abs(flat[1]-0.8) > 1e-12 {
		t.Errorf("clipped = %v", flat)
	}
	// No-op below the limit.
	flat[0], flat[1] = 0.3, 0.4
	ClipFlatNorm(flat, 1)
	if flat[0] != 0.3 {
		t.Error("clip modified in-limit gradient")
	}
}

func TestLSTMLearnsCopyTask(t *testing.T) {
	// Predict the previous token: a one-step memory task an LSTM must
	// solve nearly perfectly.
	rng := rand.New(rand.NewSource(15))
	const vocab, T, batch = 5, 8, 8
	model := NewSequential(
		NewEmbedding("emb", vocab, 8, rng),
		NewLSTM("l1", 8, 16, rng),
		NewTimeDistributed(NewDense("out", 16, vocab, rng)),
	)
	loss := &SoftmaxCrossEntropy{}
	opt := &Momentum{LR: 0.25, Mu: 0.9}
	params := model.Params()
	flat := make([]float64, ParamCount(params))
	var final float64
	for step := 0; step < 300; step++ {
		x := NewTensor(batch, T)
		targets := make([]int, batch*T)
		for b := 0; b < batch; b++ {
			prev := -1
			for tt := 0; tt < T; tt++ {
				tok := rng.Intn(vocab)
				x.Data[b*T+tt] = float64(tok)
				targets[b*T+tt] = prev // predict previous token
				if tt == 0 {
					targets[b*T+tt] = -1 // nothing to predict at t=0
				}
				prev = tok
			}
		}
		BindGrads(params, flat)
		final = loss.Forward(model.Forward(x), targets)
		model.Backward(loss.Backward())
		ClipFlatNorm(flat, 5)
		opt.StepFlat(params, flat)
	}
	if final > 0.2 {
		t.Errorf("copy-task loss = %v after training", final)
	}
}

func TestPerplexity(t *testing.T) {
	if got := Perplexity(0); got != 1 {
		t.Errorf("Perplexity(0) = %v", got)
	}
	if got := Perplexity(math.Log(50)); math.Abs(got-50) > 1e-9 {
		t.Errorf("Perplexity(log 50) = %v", got)
	}
}

// TestReshapeAndVolume: viewInto, the reshape Flatten runs on, shares the
// data under the new shape and refuses a change of volume.
func TestReshapeAndVolume(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Len() != 6 || Volume(x.Shape) != 6 {
		t.Fatal("tensor basics wrong")
	}
	var view *Tensor
	y := viewInto(&view, x, 3, 2)
	if y.Shape[0] != 3 {
		t.Fatal("reshape wrong")
	}
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Error("volume-changing reshape should panic")
		}
	}()
	viewInto(&view, x, 4, 2)
}
