package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchLoss keeps the benchmarked pass's result live.
var benchLoss float64

// onEachKernelPath calls run once per set of Dense kernels this machine
// can run — "portable" (the Go loops) and, where init chose the AVX2
// bodies, "avx2" — with Dense pointed at that set, as init would point it,
// and restores init's choice after.
func onEachKernelPath(run func(path string)) {
	chosen := kernels
	defer func() { kernels = chosen }()
	kernels = &goKernels
	run("portable")
	if chosen != &goKernels {
		kernels = chosen
		run("avx2")
	}
}

// BenchmarkDenseFwdBwd is one worker's model pass at the step benchmark's
// shape (768-1024-1024-10, batch 4) exactly as dist.Trainer runs it: bind
// the parameters to the flat gradient buffer (no clear: Dense assigns),
// forward, loss, backward — through BackwardParams, the trainer's entry,
// and through Backward, which also computes the first layer's ∂x — on each
// kernel path. The microbench row under nn.fwdbwd_ms; -benchmem must read
// 0 allocs/op.
func BenchmarkDenseFwdBwd(b *testing.B) {
	onEachKernelPath(func(path string) { b.Run(path, benchmarkDenseFwdBwd) })
}

func benchmarkDenseFwdBwd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(
		NewDense("d1", 768, 1024, rng),
		&ReLU{},
		NewDense("d2", 1024, 1024, rng),
		&ReLU{},
		NewDense("d3", 1024, 10, rng),
	)
	loss := &SoftmaxCrossEntropy{}
	params := model.Params()
	flat := make([]float64, ParamCount(params))
	x := randTensor(rng, 4, 768)
	targets := randTargets(rng, 4, 10)
	for _, entry := range []struct {
		name     string
		backward func(*Tensor)
	}{
		{"BackwardParams", model.BackwardParams},
		{"Backward", func(g *Tensor) { model.Backward(g) }},
	} {
		b.Run(entry.name, func(b *testing.B) {
			pass := func() {
				BindGrads(params, flat)
				benchLoss = loss.Forward(model.Forward(x), targets)
				entry.backward(loss.Backward())
			}
			pass() // size every layer's reused buffers
			b.SetBytes(int64(8 * len(flat)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// refDenseForward and refDenseBackward are the row-at-a-time loops Dense
// ran before its kernels were blocked over the batch. They define the
// operand order of every sum (over i in forward, over b for ∂W and ∂b,
// over j for ∂x) and exist only as the reference the kernels must match
// bit for bit.
func refDenseForward(in, out int, w, bias, x []float64, batch int) []float64 {
	y := make([]float64, batch*out)
	for b := 0; b < batch; b++ {
		xRow := x[b*in : (b+1)*in]
		oRow := y[b*out : (b+1)*out]
		copy(oRow, bias)
		for i, xv := range xRow {
			if xv == 0 {
				continue
			}
			wRow := w[i*out : (i+1)*out]
			for j, wv := range wRow {
				oRow[j] += xv * wv
			}
		}
	}
	return y
}

func refDenseBackward(in, out int, w, wG, bG, x, gradOut []float64, batch int) []float64 {
	gradIn := make([]float64, batch*in)
	for b := 0; b < batch; b++ {
		xRow := x[b*in : (b+1)*in]
		gRow := gradOut[b*out : (b+1)*out]
		giRow := gradIn[b*in : (b+1)*in]
		for j, gv := range gRow {
			bG[j] += gv
		}
		for i, xv := range xRow {
			wRow := w[i*out : (i+1)*out]
			wgRow := wG[i*out : (i+1)*out]
			sum := 0.0
			for j, gv := range gRow {
				wgRow[j] += xv * gv
				sum += wRow[j] * gv
			}
			giRow[i] = sum
		}
	}
	return gradIn
}

// postReLUInput draws a [batch, in] input with the zero patterns a ReLU
// hands the next Dense: about half the entries zero, one all-zero row, a
// few negative zeros, column in/2 zero in every row (alternating +0 and
// -0), and — across the columns of every block of four rows — each of the
// 16 zero/non-zero arrangements, so every gathered count 0…4 occurs inside
// a block.
func postReLUInput(rng *rand.Rand, batch, in int) []float64 {
	x := make([]float64, batch*in)
	negZero := math.Copysign(0, -1)
	for b := 0; b < batch; b++ {
		for i := 0; i < in; i++ {
			mask := i % 16
			switch {
			case mask>>(b%4)&1 == 0:
				// zero by the block pattern
			case rng.Intn(8) == 0:
				x[b*in+i] = negZero
			default:
				x[b*in+i] = math.Abs(rng.NormFloat64()) + 0.01
			}
		}
	}
	if batch > 1 {
		clear(x[(batch/2)*in : (batch/2+1)*in])
	}
	for b := 0; b < batch; b++ {
		x[b*in+in/2] = 0
		if b%2 == 1 {
			x[b*in+in/2] = negZero
		}
	}
	return x
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDenseKernelsMatchRowAtATime holds the batch-blocked Dense kernels to
// the row-at-a-time loops they replaced, on math.Float64bits: output,
// input gradient, ∂W and ∂b, for every batch size around the block width
// (tails of 1–3 rows), layer widths on both sides of small and odd, the
// post-ReLU zero patterns, two Backward calls accumulating into the same
// (non-zero, partly negative-zero) G, and through TimeDistributed. Then the
// unwritten-G entries, through Backward and through BackwardParams: bound
// by BindGrads to a buffer of NaNs, the first call must leave what the
// reference leaves in a cleared G — its first block assigning (a -0 product
// or a -0 output gradient landing as +0), any later block accumulating —
// and a second call before the next bind must accumulate on top. Both
// kernel paths run it.
func TestDenseKernelsMatchRowAtATime(t *testing.T) {
	onEachKernelPath(func(path string) { t.Run(path, denseKernelsMatchRowAtATime) })
}

func denseKernelsMatchRowAtATime(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sizes := []int{1, 3, 10, 64, 65}
	for _, in := range sizes {
		for _, out := range sizes {
			for batch := 1; batch <= 9; batch++ {
				rng := rand.New(rand.NewSource(int64(in*1000 + out*10 + batch)))
				d := NewDense("d", in, out, rng)
				for j := range d.B.W {
					d.B.W[j] = rng.NormFloat64()
				}
				d.W.W[rng.Intn(len(d.W.W))] = negZero
				// Input column in/2 is ±0 in every row: an infinite weight
				// there turns a dropped x == 0 skip into a NaN output.
				d.W.W[(in/2)*out] = math.Inf(1)
				// G starts non-zero, with negative zeros in it: Backward
				// accumulates, it does not assign.
				for _, p := range d.Params() {
					for i := range p.G {
						if i%5 == 0 {
							p.G[i] = negZero
						} else {
							p.G[i] = rng.NormFloat64()
						}
					}
				}
				refWG := append([]float64(nil), d.W.G...)
				refBG := append([]float64(nil), d.B.G...)

				// Pass 0 drives Dense directly, pass 1 the same layer
				// through TimeDistributed ([1, batch, in]) into the G
				// pass 0 left behind.
				td := NewTimeDistributed(d)
				for pass := 0; pass < 2; pass++ {
					x := &Tensor{Shape: []int{batch, in}, Data: postReLUInput(rng, batch, in)}
					gradOut := randTensor(rng, batch, out)
					gradOut.Data[rng.Intn(len(gradOut.Data))] = 0
					gradOut.Data[rng.Intn(len(gradOut.Data))] = negZero

					var y, gradIn *Tensor
					if pass == 0 {
						y = d.Forward(x)
						gradIn = d.Backward(gradOut)
					} else {
						y = td.Forward(&Tensor{Shape: []int{1, batch, in}, Data: x.Data})
						gradIn = td.Backward(&Tensor{Shape: []int{1, batch, out}, Data: gradOut.Data})
					}
					wantY := refDenseForward(in, out, d.W.W, d.B.W, x.Data, batch)
					wantGI := refDenseBackward(in, out, d.W.W, refWG, refBG, x.Data, gradOut.Data, batch)

					name := fmt.Sprintf("in=%d out=%d batch=%d pass=%d: ", in, out, batch, pass)
					bitsEqual(t, name+"out", y.Data, wantY)
					bitsEqual(t, name+"gradIn", gradIn.Data, wantGI)
					bitsEqual(t, name+"W.G", d.W.G, refWG)
					bitsEqual(t, name+"B.G", d.B.G, refBG)
				}

				for _, paramsOnly := range []bool{false, true} {
					flat := make([]float64, ParamCount(d.Params()))
					for i := range flat {
						flat[i] = math.NaN()
					}
					BindGrads(d.Params(), flat)
					clear(refWG)
					clear(refBG)
					for call := 0; call < 2; call++ {
						x := &Tensor{Shape: []int{batch, in}, Data: postReLUInput(rng, batch, in)}
						gradOut := randTensor(rng, batch, out)
						gradOut.Data[rng.Intn(len(gradOut.Data))] = 0
						gradOut.Data[0] = negZero // ∂b's assigned row
						if out > 1 {
							// Column in/2 of x is ±0 in every row: under a
							// negative output gradient all its products are
							// -0 in some row arrangement.
							gradOut.Data[1] = -math.Abs(gradOut.Data[1]) - 1
						}
						d.Forward(x)
						name := fmt.Sprintf("in=%d out=%d batch=%d paramsOnly=%v call=%d: ", in, out, batch, paramsOnly, call)
						wantGI := refDenseBackward(in, out, d.W.W, refWG, refBG, x.Data, gradOut.Data, batch)
						if paramsOnly {
							d.BackwardParams(gradOut)
						} else {
							bitsEqual(t, name+"gradIn", d.Backward(gradOut).Data, wantGI)
						}
						bitsEqual(t, name+"W.G", d.W.G, refWG)
						bitsEqual(t, name+"B.G", d.B.G, refBG)
						bitsEqual(t, name+"flat W span", flat[:in*out], refWG)
					}
				}
			}
		}
	}
}

// boundGradient runs one pass the way dist.Trainer does — BindGrads onto a
// buffer of stale values, forward, loss, BackwardParams — and returns the
// buffer.
func boundGradient(model *Sequential, x *Tensor, targets []int) []float64 {
	params := model.Params()
	flat := make([]float64, ParamCount(params))
	for i := range flat {
		flat[i] = math.NaN()
	}
	BindGrads(params, flat)
	loss := &SoftmaxCrossEntropy{}
	loss.Forward(model.Forward(x), targets)
	model.BackwardParams(loss.Backward())
	return flat
}

// ownGradient is the reference for boundGradient: every parameter's own G,
// cleared, accumulated into by Backward, and copied out in parameter order —
// the gradients this package produced before G could be unwritten.
func ownGradient(model *Sequential, x *Tensor, targets []int) []float64 {
	zeroGrad(model)
	loss := &SoftmaxCrossEntropy{}
	loss.Forward(model.Forward(x), targets)
	model.Backward(loss.Backward())
	var flat []float64
	for _, p := range model.Params() {
		flat = append(flat, p.G...)
	}
	return flat
}

// TestBoundGradientsMatchOwnG: the unwritten-G contract and BackwardParams
// change where and how often ∂W is written, never its value. Models whose
// first parameterised layer is not a Dense (Conv2D, Embedding + LSTM: they
// keep accumulate-into-cleared and must get a ∂x-computing Backward where
// one is needed), a Dense behind a parameter-free layer, and a Dense
// nested in a Sequential all give, bit for bit, the gradient of a twin
// model run through a cleared G and Backward, on both kernel paths.
func TestBoundGradientsMatchOwnG(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *Sequential
		input func(rng *rand.Rand) (*Tensor, []int)
	}{
		{"conv-first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D("c1", 2, 3, 3, rng), &ReLU{}, &MaxPool2D{}, &Flatten{}, NewDense("d1", 3*3*3, 5, rng))
		}, func(rng *rand.Rand) (*Tensor, []int) { return randTensor(rng, 6, 2, 8, 8), randTargets(rng, 6, 5) }},
		{"embedding-lstm-first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewEmbedding("emb", 7, 4, rng), NewLSTM("l1", 4, 6, rng), NewTimeDistributed(NewDense("out", 6, 7, rng)))
		}, func(rng *rand.Rand) (*Tensor, []int) {
			x := NewTensor(3, 5)
			for i := range x.Data {
				x.Data[i] = float64(rng.Intn(7))
			}
			return x, randTargets(rng, 15, 7)
		}},
		{"lstm-first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewLSTM("l1", 4, 6, rng), NewTimeDistributed(NewDense("out", 6, 3, rng)))
		}, func(rng *rand.Rand) (*Tensor, []int) { return randTensor(rng, 2, 5, 4), randTargets(rng, 10, 3) }},
		{"flatten-dense", func(rng *rand.Rand) *Sequential {
			return NewSequential(&Flatten{}, NewDense("d1", 12, 9, rng), &ReLU{}, NewDense("d2", 9, 4, rng))
		}, func(rng *rand.Rand) (*Tensor, []int) { return randTensor(rng, 7, 3, 4), randTargets(rng, 7, 4) }},
		{"nested", func(rng *rand.Rand) *Sequential {
			return NewSequential(&Flatten{}, NewSequential(NewDense("d1", 12, 9, rng), &ReLU{}), NewDense("d2", 9, 4, rng))
		}, func(rng *rand.Rand) (*Tensor, []int) { return randTensor(rng, 5, 12), randTargets(rng, 5, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			onEachKernelPath(func(path string) {
				t.Run(path, func(t *testing.T) {
					bound, own := tc.build(rand.New(rand.NewSource(3))), tc.build(rand.New(rand.NewSource(3)))
					rng := rand.New(rand.NewSource(4))
					for pass := 0; pass < 2; pass++ { // the second pass rebinds over the first's values
						x, targets := tc.input(rng)
						bitsEqual(t, fmt.Sprintf("pass %d gradient", pass), boundGradient(bound, x, targets), ownGradient(own, x, targets))
					}
				})
			})
		})
	}
}

// TestSharedDenseBindsLikeAccumulateIntoCleared pins what a layer listed
// twice gets from BindGrads: Params names its parameters twice, so flat has
// two spans for them; G ends up on the second, which receives both uses'
// gradients — the first use assigning, the second accumulating — and the
// abandoned first span reads as zero, exactly what clearing flat and
// accumulating gave. Both kernel paths run it.
func TestSharedDenseBindsLikeAccumulateIntoCleared(t *testing.T) {
	onEachKernelPath(func(path string) { t.Run(path, sharedDenseBindsLikeAccumulateIntoCleared) })
}

func sharedDenseBindsLikeAccumulateIntoCleared(t *testing.T) {
	build := func() (*Sequential, *Dense) {
		d := NewDense("shared", 6, 6, rand.New(rand.NewSource(8)))
		return NewSequential(d, &ReLU{}, d), d
	}
	rng := rand.New(rand.NewSource(9))
	x, targets := randTensor(rng, 5, 6), randTargets(rng, 5, 6)
	bound, _ := build()
	got := boundGradient(bound, x, targets)
	own, d := build()
	ownGradient(own, x, targets)
	n := len(d.W.G) + len(d.B.G)
	want := make([]float64, 2*n)
	copy(want[n:], d.W.G)
	copy(want[n+len(d.W.G):], d.B.G)
	bitsEqual(t, "flat", got, want)
}

// TestDenseSteadyStateAllocs: once its buffers are sized, a Dense pass
// allocates nothing, at a full block and at a tail.
func TestDenseSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense("d", 65, 33, rng)
	for _, batch := range []int{4, 7} {
		x := &Tensor{Shape: []int{batch, 65}, Data: postReLUInput(rng, batch, 65)}
		gradOut := randTensor(rng, batch, 33)
		d.Forward(x)
		d.Backward(gradOut)
		if n := testing.AllocsPerRun(20, func() { d.Forward(x) }); n != 0 {
			t.Errorf("batch %d: Dense.Forward allocates %v objects/op in steady state", batch, n)
		}
		if n := testing.AllocsPerRun(20, func() { d.Backward(gradOut) }); n != 0 {
			t.Errorf("batch %d: Dense.Backward allocates %v objects/op in steady state", batch, n)
		}
	}
}
