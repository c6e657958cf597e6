package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// benchLoss keeps the benchmarked pass's result live.
var benchLoss float64

// onEachKernelPath calls run once per set of Dense kernels this machine
// can run — "portable" (the Go loops) and, where init chose the AVX2
// bodies, "avx2" — with Dense pointed at that set, as init would point it,
// and restores init's choice after.
func onEachKernelPath(run func(path string)) {
	WithGoKernels(func() { run("portable") })
	if kernels != &goKernels {
		run("avx2")
	}
}

// BenchmarkDenseFwdBwd is one worker's model pass at the step benchmark's
// shape (768-1024-1024-10, batch 4) exactly as dist.Trainer runs it: bind
// the parameters to the flat gradient buffer (no clear: Dense assigns),
// forward, loss, backward — through BackwardParams, the trainer's entry,
// and through Backward, which also computes the first layer's ∂x — on each
// kernel path. The EC rows are the trainer's error-feedback route under
// SIDCo-E: BindGradsAdding into a residual, BackwardParams, and Σ|v| of
// the residual for the first stage — swept after the pass (EC-sweep), or
// from the block sums the pass carried (EC-sums), the uncovered blocks
// swept. The microbench row under nn.fwdbwd_ms; -benchmem must read 0
// allocs/op.
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
	acc := make([]float64, len(flat))
	var sums stats.AbsPartials
	bind := func() { BindGrads(params, flat) }
	for _, entry := range []struct {
		name     string
		bind     func()
		backward func(*Tensor)
		after    func()
	}{
		{"BackwardParams", bind, model.BackwardParams, func() {}},
		{"Backward", bind, func(g *Tensor) { model.Backward(g) }, func() {}},
		{"EC-sweep", func() { BindGradsAdding(params, acc, nil) }, model.BackwardParams, func() { benchLoss = stats.MeanAbs(acc) }},
		{"EC-sums", func() { BindGradsAdding(params, acc, &sums) }, model.BackwardParams, func() { benchLoss = sums.Total(acc) }},
	} {
		b.Run(entry.name, func(b *testing.B) {
			pass := func() {
				entry.bind()
				benchLoss = loss.Forward(model.Forward(x), targets)
				entry.backward(loss.Backward())
				entry.after()
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
// and a second call before the next bind must accumulate on top. Then the
// adding bind (BindGradsAdding) onto a buffer of values with ±0 among
// them: the first call must leave the buffer plus the gradient the
// reference sums into a cleared G, added once per element (a -0 in the
// buffer landing as +0), over every batch size 1–9 and so over one block
// and several, and a second call must accumulate on top. Both kernel paths
// run it.
func TestDenseKernelsMatchRowAtATime(t *testing.T) {
	onEachKernelPath(func(path string) {
		t.Run(path, denseKernelsMatchRowAtATime)
		t.Run(path+"/block-sums", denseBlockSumsMatchRowAtATime)
	})
}

// sumLayerIn is how many rows the block-sums case gives a layer of width
// out whose W starts at off: where out divides 4096, the rows before the
// first whole 4096-element block, two groups of four blocks and three rows
// after (a run of blocks too short to carry sums); else nine.
func sumLayerIn(out, off int) int {
	if sumBlock%out != 0 {
		return 9
	}
	head := ((off+sumBlock-1)/sumBlock*sumBlock - off) / out
	return head + 2*denseRows*sumBlock/out + 3
}

// denseBlockSumsMatchRowAtATime is the adding bind with block sums
// (BindGradsAdding with partials) at widths 1, 3, 4, 10, 12, 1000, 1024,
// 4096 and 8192, batch 1–9, through Backward and BackwardParams: the layer
// sits behind another layer's parameters, at offset 2·width, so its rows
// go one apart before the first whole block and after the last group of
// four, and 4096/width apart inside the groups where the width divides
// 4096. ∂W, ∂b and ∂x must be the reference's added into the buffer, every
// covered block's chain Σ|v| of the block from +0 in element order, the
// covered blocks exactly the groups of four whole blocks, and the total
// absSum's bit for bit. A second Backward accumulates and forgets the
// chains.
func denseBlockSumsMatchRowAtATime(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, out := range []int{1, 3, 4, 10, 12, 1000, 1024, 4096, 8192} {
		in := sumLayerIn(out, 2*out)
		for batch := 1; batch <= 9; batch++ {
			for _, paramsOnly := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(out*100 + batch)))
				pre, d := NewDense("pre", 1, out, rng), NewDense("d", in, out, rng)
				params := append(pre.Params(), d.Params()...)
				acc := make([]float64, ParamCount(params))
				for i := range acc {
					switch i % 7 {
					case 0:
						acc[i] = negZero
					case 1:
						acc[i] = 0
					default:
						acc[i] = rng.NormFloat64()
					}
				}
				off := 2 * out
				accW := append([]float64(nil), acc[off:off+in*out]...)
				accB := append([]float64(nil), acc[off+in*out:]...)
				var sums stats.AbsPartials
				BindGradsAdding(params, acc, &sums)
				for call := 0; call < 2; call++ {
					x := &Tensor{Shape: []int{batch, in}, Data: postReLUInput(rng, batch, in)}
					gradOut := randTensor(rng, batch, out)
					gradOut.Data[rng.Intn(len(gradOut.Data))] = negZero
					d.Forward(x)
					name := fmt.Sprintf("out=%d in=%d batch=%d paramsOnly=%v call=%d: ", out, in, batch, paramsOnly, call)
					var refWG, refBG []float64
					if call == 0 {
						refWG, refBG = make([]float64, in*out), make([]float64, out)
					} else {
						refWG, refBG = append([]float64(nil), d.W.G...), append([]float64(nil), d.B.G...)
					}
					wantGI := refDenseBackward(in, out, d.W.W, refWG, refBG, x.Data, gradOut.Data, batch)
					if call == 0 {
						for i := range refWG {
							refWG[i] = accW[i] + refWG[i]
						}
						for j := range refBG {
							refBG[j] = accB[j] + refBG[j]
						}
					}
					if paramsOnly {
						d.BackwardParams(gradOut)
					} else {
						bitsEqual(t, name+"gradIn", d.Backward(gradOut).Data, wantGI)
					}
					bitsEqual(t, name+"W.G", d.W.G, refWG)
					bitsEqual(t, name+"B.G", d.B.G, refBG)

					covered := 0
					for b := 0; b*sumBlock < len(acc); b++ {
						got, ok := sums.Chain(b)
						if !ok {
							continue
						}
						covered++
						want := 0.0
						for _, v := range acc[b*sumBlock : (b+1)*sumBlock] {
							want += math.Abs(v)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%sblock %d chain %v, Σ|v| in element order %v", name, b, got, want)
						}
					}
					wantCovered := 0
					if call == 0 && sumBlock%out == 0 {
						wantCovered = 2 * denseRows
					}
					if covered != wantCovered {
						t.Fatalf("%s%d blocks covered, want %d", name, covered, wantCovered)
					}
					if got, want := sums.Total(acc), new(stats.AbsPartials).Total(acc); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%sTotal %v, absSum %v", name, got, want)
					}
				}
			}
		}
	}
}

func denseKernelsMatchRowAtATime(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sizes := []int{1, 3, 4, 10, 12, 64, 65}
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

				for _, paramsOnly := range []bool{false, true} {
					acc := make([]float64, ParamCount(d.Params()))
					for i := range acc {
						switch i % 7 {
						case 0:
							acc[i] = negZero
						case 1:
							acc[i] = 0
						default:
							acc[i] = rng.NormFloat64()
						}
					}
					accW, accB := append([]float64(nil), acc[:in*out]...), append([]float64(nil), acc[in*out:]...)
					BindGradsAdding(d.Params(), acc, nil)
					for call := 0; call < 2; call++ {
						x := &Tensor{Shape: []int{batch, in}, Data: postReLUInput(rng, batch, in)}
						gradOut := randTensor(rng, batch, out)
						gradOut.Data[rng.Intn(len(gradOut.Data))] = 0
						gradOut.Data[0] = negZero
						d.Forward(x)
						name := fmt.Sprintf("in=%d out=%d batch=%d adding paramsOnly=%v call=%d: ", in, out, batch, paramsOnly, call)
						// The first call adds the gradient, summed into a
						// cleared buffer, into acc; the second accumulates.
						var wantGI []float64
						if call == 0 {
							sumW, sumB := make([]float64, in*out), make([]float64, out)
							wantGI = refDenseBackward(in, out, d.W.W, sumW, sumB, x.Data, gradOut.Data, batch)
							for i := range refWG {
								refWG[i] = accW[i] + sumW[i]
							}
							for j := range refBG {
								refBG[j] = accB[j] + sumB[j]
							}
						} else {
							wantGI = refDenseBackward(in, out, d.W.W, refWG, refBG, x.Data, gradOut.Data, batch)
						}
						if paramsOnly {
							d.BackwardParams(gradOut)
						} else {
							bitsEqual(t, name+"gradIn", d.Backward(gradOut).Data, wantGI)
						}
						bitsEqual(t, name+"W.G", d.W.G, refWG)
						bitsEqual(t, name+"B.G", d.B.G, refBG)
						bitsEqual(t, name+"acc W span", acc[:in*out], refWG)
					}
				}
			}
		}
	}
}

// TestBackwardBlockSumsMatchAbsSum runs one pass the way dist.Trainer does
// on its error-feedback route under SIDCo-E — BindGradsAdding onto a
// residual with partials, forward, loss, BackwardParams — on three
// layouts: the step benchmark's model (768-1024-1024-10, batch 4), the
// demo's (16-12-4, d = 256: no whole block) and one whose second layer's
// W starts at an offset that is not a multiple of its width (32-512-1024-10).
// On both kernel paths the residual must be, bit for bit, what the same
// pass without partials leaves; the partials' total absSum's over it, bit
// for bit; and the blocks covered those the layouts' widths and offsets
// allow: 444 of the benchmark's 452 (its first layer's 192, and 252 of the
// 255 whole blocks of its second's, in groups of four), none of the demo's,
// and 4 (the first layer's) of the third's.
func TestBackwardBlockSumsMatchAbsSum(t *testing.T) {
	cases := []struct {
		name    string
		widths  []int
		batch   int
		covered int
	}{
		{"bench", []int{768, 1024, 1024, 10}, 4, 444},
		{"demo", []int{16, 12, 4}, 8, 0},
		{"offset-not-multiple", []int{32, 512, 1024, 10}, 5, 4},
	}
	for _, tc := range cases {
		onEachKernelPath(func(path string) {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				build := func() *Sequential {
					rng := rand.New(rand.NewSource(11))
					var layers []Layer
					for i := 0; i+1 < len(tc.widths); i++ {
						if i > 0 {
							layers = append(layers, &ReLU{})
						}
						layers = append(layers, NewDense(fmt.Sprintf("d%d", i+1), tc.widths[i], tc.widths[i+1], rng))
					}
					return NewSequential(layers...)
				}
				withSums, without := build(), build()
				rng := rand.New(rand.NewSource(12))
				x, targets := randTensor(rng, tc.batch, tc.widths[0]), randTargets(rng, tc.batch, tc.widths[len(tc.widths)-1])
				acc := make([]float64, ParamCount(withSums.Params()))
				for i := range acc {
					acc[i] = rng.NormFloat64()
				}
				plain := append([]float64(nil), acc...)
				var sums stats.AbsPartials
				for _, run := range []struct {
					model *Sequential
					acc   []float64
					sums  *stats.AbsPartials
				}{{withSums, acc, &sums}, {without, plain, nil}} {
					BindGradsAdding(run.model.Params(), run.acc, run.sums)
					loss := &SoftmaxCrossEntropy{}
					loss.Forward(run.model.Forward(x), targets)
					run.model.BackwardParams(loss.Backward())
				}
				bitsEqual(t, "residual", acc, plain)
				if got, want := sums.Total(acc), new(stats.AbsPartials).Total(acc); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Total %v, absSum %v", got, want)
				}
				covered := 0
				for b := 0; b*sumBlock < len(acc); b++ {
					if _, ok := sums.Chain(b); ok {
						covered++
					}
				}
				if covered != tc.covered {
					t.Fatalf("%d of %d blocks covered, want %d", covered, (len(acc)+sumBlock-1)/sumBlock, tc.covered)
				}
			})
		})
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
