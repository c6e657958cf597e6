package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// axpyArgs are one forward kernel call's inputs: a row of W, four x and
// four output rows. A kernel reads the ones it takes.
type axpyArgs struct {
	w []float64
	x [4]float64
	o [4][]float64
}

// axpyCalls run each forward kernel of a set on the args and return the
// rows it wrote.
var axpyCalls = []struct {
	name string
	call func(k *denseKernels, a axpyArgs) []float64
}{
	{"axpy1", func(k *denseKernels, a axpyArgs) []float64 {
		k.axpy1(a.w, a.x[0], a.o[0])
		return a.o[0]
	}},
	{"axpy2", func(k *denseKernels, a axpyArgs) []float64 {
		k.axpy2(a.w, a.x[0], a.x[1], a.o[0], a.o[1])
		return slices.Concat(a.o[:2]...)
	}},
	{"axpy3", func(k *denseKernels, a axpyArgs) []float64 {
		k.axpy3(a.w, a.x[0], a.x[1], a.x[2], a.o[0], a.o[1], a.o[2])
		return slices.Concat(a.o[:3]...)
	}},
	{"axpy4", func(k *denseKernels, a axpyArgs) []float64 {
		k.axpy4(a.w, a.x[0], a.x[1], a.x[2], a.x[3], a.o[0], a.o[1], a.o[2], a.o[3])
		return slices.Concat(a.o[:]...)
	}},
}

// clone copies the rows a forward kernel writes, so each set starts from
// the same bits.
func (a axpyArgs) clone() axpyArgs {
	for r := range a.o {
		a.o[r] = slices.Clone(a.o[r])
	}
	return a
}

// rowArgs are one four-row backward kernel call's inputs: four rows of W,
// of ∂W and of partial sums of width n, rows 0…3 stride rows apart in w and
// wg and one after the other in part; x[k][r]; the block of ∂y, four rows
// one after the other; and the four |∂W| chains, nil when the call carries
// none.
type rowArgs struct {
	n, stride   int
	w, wg, part []float64
	mode        sumMode
	x           [4][4]float64
	g           []float64
	abs         *[4]float64
}

// sumMode is how a ∂W kernel starts and stores its sums: the from and add
// arguments Dense.backward passes.
type sumMode uint8

const (
	accumulate sumMode = iota // from wg, stored
	assign                    // from +0, stored
	addInto                   // from +0, added into wg
	finish                    // from rows of partial sums, added into wg
)

var sumModes = []sumMode{accumulate, assign, addInto, finish}

func (m sumMode) String() string {
	return [...]string{"accumulate", "assign", "add", "finish"}[m]
}

// from and its stride, and add, are the kernel arguments a's mode stands
// for.
func (a rowArgs) from() ([]float64, int) {
	switch a.mode {
	case accumulate:
		return a.wg, a.stride * a.n
	case finish:
		return a.part, a.n
	}
	return nil, 0
}

func (a rowArgs) add() bool { return a.mode >= addInto }

// row returns row k of W, ∂W or the partial sums.
func (a rowArgs) row(v []float64, k int) []float64 {
	s := a.stride * a.n
	if &v[0] == &a.part[0] {
		s = a.n
	}
	return v[k*s : k*s+a.n]
}

// rowCalls run each four-row backward kernel of a set on the args and
// return everything it wrote: ∂W's four rows, the ∂x sums and the chains.
var rowCalls = []struct {
	name string
	call func(k *denseKernels, a rowArgs) []float64
}{
	{"gradWRows4", func(k *denseKernels, a rowArgs) []float64 {
		from, fs := a.from()
		k.gradWRows4(a.wg, from, a.stride*a.n, fs, a.add(), &a.x, a.g, a.abs)
		return a.written(nil)
	}},
	{"backwardRows4", func(k *denseKernels, a rowArgs) []float64 {
		from, fs := a.from()
		var dx [4][4]float64
		ws := a.stride * a.n
		k.backwardRows4(a.w, a.wg, from, ws, ws, fs, a.add(), &a.x, a.g, a.abs, &dx)
		return a.written(&dx)
	}},
}

// written is what a four-row call left: the whole ∂W array (rows and the
// slots between them), dx and the chains.
func (a rowArgs) written(dx *[4][4]float64) []float64 {
	out := slices.Clone(a.wg)
	if dx != nil {
		for k := range dx {
			out = append(out, dx[k][:]...)
		}
	}
	if a.abs != nil {
		out = append(out, a.abs[:]...)
	}
	return out
}

// clone copies what a four-row kernel writes, so each set starts from the
// same bits.
func (a rowArgs) clone() rowArgs {
	a.wg = slices.Clone(a.wg)
	if a.abs != nil {
		c := *a.abs
		a.abs = &c
	}
	return a
}

// nanBits draws a NaN with a payload of its own, quiet or signalling, of
// either sign: which NaN a kernel returns shows which operand came first.
func nanBits(rng *rand.Rand) float64 {
	payload := uint64(rng.Int63n(1<<51-1)) + 1
	bits := 0x7ff0000000000000 | payload
	if rng.Intn(2) == 0 {
		bits |= 1 << 51 // quiet
	}
	if rng.Intn(2) == 0 {
		bits |= 1 << 63
	}
	return math.Float64frombits(bits)
}

// kernelValue draws from the values whose bits a kernel could get wrong:
// ±0, subnormals, ±Inf, NaNs, and normals small or large enough that
// their products underflow to subnormals or overflow to Inf.
func kernelValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52-1))+1)
	case 2:
		return math.Inf(int(sign))
	case 3:
		return nanBits(rng)
	case 4:
		return sign * 1e-300 * rng.Float64()
	case 5:
		return sign * 1e300 * rng.Float64()
	default:
		return rng.NormFloat64()
	}
}

// fill returns n values by draw.
func fill(rng *rand.Rand, n int, draw func(*rand.Rand) float64) []float64 {
	v := make([]float64, n)
	for j := range v {
		v[j] = draw(rng)
	}
	return v
}

// axpyArgsOf draws one forward call's args of width n, each value by draw.
func axpyArgsOf(rng *rand.Rand, n int, draw func(*rand.Rand) float64) axpyArgs {
	a := axpyArgs{w: fill(rng, n, draw)}
	for r := range a.x {
		a.x[r], a.o[r] = draw(rng), fill(rng, n, draw)
	}
	return a
}

// gapBits fills the slots between a four-row call's rows of W and ∂W: a
// kernel must leave them as they are.
const gapBits = 0x7ff4dead0000beef

// rowArgsOf draws one four-row call's args of width n, the rows stride
// rows apart, each value by draw (the slots between rows hold gapBits);
// chains says whether it carries chains (drawn too: a call continues a
// block's chain).
func rowArgsOf(rng *rand.Rand, n, stride int, mode sumMode, chains bool, draw func(*rand.Rand) float64) rowArgs {
	rows := func() []float64 {
		v := make([]float64, 3*stride*n+n)
		for i := range v {
			v[i] = math.Float64frombits(gapBits)
		}
		for k := range 4 {
			for j := range n {
				v[k*stride*n+j] = draw(rng)
			}
		}
		return v
	}
	a := rowArgs{n: n, stride: stride, mode: mode,
		w: rows(), wg: rows(), part: fill(rng, 4*n+1, draw), g: fill(rng, 4*n, draw)}
	for k := range a.x {
		for r := range a.x[k] {
			a.x[k][r] = draw(rng)
		}
	}
	if chains {
		a.abs = &[4]float64{draw(rng), draw(rng), draw(rng), draw(rng)}
	}
	return a
}

// pinNaNs puts NaNs of their own payloads into finite args so that at j
// row k's multiplies by batch row r (mul) or its adds (!mul) meet a NaN in
// both operands and the result shows which operand came first:
//   - mul: x[k][r], w[k][j] and ∂y_r[j]. Nothing before j is a NaN, so
//     every sum a product joins is finite until it.
//   - add: w[k][j], ∂W[k][j], the partial sum at j, ∂y_r[j] and ∂y_0[j]
//     (so that a sum started from +0 is a NaN before row r, and an
//     added-into ∂W meets a NaN sum), w[k][j-1] (so that every ∂x sum of
//     row k is one) and row k's chain (so that it meets a NaN |∂W|). The
//     other rows' products at j are finite.
func (a *rowArgs) pinNaNs(rng *rand.Rand, j, k, r int, mul bool) {
	a.row(a.w, k)[j], a.g[r*a.n+j] = nanBits(rng), nanBits(rng)
	if mul {
		a.x[k][r] = nanBits(rng)
		return
	}
	a.row(a.wg, k)[j], a.row(a.part, k)[j], a.g[j] = nanBits(rng), nanBits(rng), nanBits(rng)
	if j > 0 {
		a.row(a.w, k)[j-1] = nanBits(rng)
	}
	if a.abs != nil {
		a.abs[k] = nanBits(rng)
	}
}

// instrumentedBuild names the build setting, if any, that instruments or
// deoptimises the Go kernels — which can swap the operands of their
// commutative adds and multiplies.
func instrumentedBuild() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "no build info"
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "-race", "-msan", "-asan", "-cover":
			if s.Value == "true" {
				return s.Key
			}
		case "-gcflags":
			return s.Key + " " + s.Value
		}
	}
	return ""
}

// TestAVX2KernelsMatchGo holds each AVX2 body to its Go twin on
// math.Float64bits: every element written and every sum returned. The
// forward bodies run at widths 0–9, putting every tail length on both
// sides of the four-lane body, and 1023–1025, a row wider than the
// benchmark's. The four-row backward bodies run at widths 0–10 and 12,
// 1000 and 1023–1025, 4096 and 8192; with the rows one apart and, where
// the width divides 4096, 4096/width apart as Backward takes them when it
// carries block sums (else three apart); with the |∂W| chains and without;
// in every sumMode: accumulating, assigning, adding into ∂W, and adding
// rows of partial sums' totals into it. Random calls draw from ±0,
// subnormals, ±Inf, NaNs and normals whose products underflow or overflow.
// Pinned calls make one row's multiplies or adds — the final add into ∂W,
// the ∂x chains and the |∂W| chains among them — meet a NaN in both
// operands at one j, for every row of W and of the batch, at each of the
// first eight and last three j up to width 1025 (the four-row bodies at
// the wider stride and with the chains) — every lane of the
// vector body and of the scalar tail: only the Go compiler's operand order
// returns the payload its loop returns.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: Dense runs the Go kernels")
	}
	if flag := instrumentedBuild(); flag != "" {
		t.Skipf("built with %s: the Go kernels are not compiled as they ship, and their NaN payloads follow other operand orders", flag)
	}
	normal := func(rng *rand.Rand) float64 { return rng.NormFloat64() }
	pinned := func(n, j int) bool { return n <= 1025 && (j < 8 || j >= n-3) }
	for _, kc := range axpyCalls {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1023, 1024, 1025} {
			rng := rand.New(rand.NewSource(int64(n)))
			check := func(what string, a axpyArgs) {
				want := kc.call(&goKernels, a.clone())
				got := kc.call(&avx2Kernels, a.clone())
				bitsEqual(t, fmt.Sprintf("%s width=%d %s", kc.name, n, what), got, want)
			}
			for seed := range 4 {
				check(fmt.Sprintf("random %d", seed), axpyArgsOf(rng, n, kernelValue))
			}
			for j := range n {
				if !pinned(n, j) {
					continue
				}
				// Row r's multiply meets a NaN in both operands (x_r and
				// w[j]), or its add does (w[j] makes the product one, and
				// o_r[j]).
				for r := range 4 {
					for _, mul := range []bool{false, true} {
						a := axpyArgsOf(rng, n, normal)
						a.w[j] = nanBits(rng)
						if mul {
							a.x[r] = nanBits(rng)
						} else {
							a.o[r][j] = nanBits(rng)
						}
						check(fmt.Sprintf("pinned j=%d row=%d mul=%v", j, r, mul), a)
					}
				}
			}
		}
	}
	for _, kc := range rowCalls {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 1000, 1023, 1024, 1025, 4096, 8192} {
			strides := []int{1, 3}
			if n > 0 && sumBlock%n == 0 {
				strides[1] = sumBlock / n
			}
			for _, stride := range strides {
				for _, chains := range []bool{false, true} {
					for _, mode := range sumModes {
						rng := rand.New(rand.NewSource(int64(n*10 + stride)))
						check := func(what string, a rowArgs) {
							want := kc.call(&goKernels, a.clone())
							got := kc.call(&avx2Kernels, a.clone())
							bitsEqual(t, fmt.Sprintf("%s width=%d stride=%d chains=%v mode=%v %s", kc.name, n, stride, chains, mode, what), got, want)
						}
						for seed := range 2 {
							check(fmt.Sprintf("random %d", seed), rowArgsOf(rng, n, stride, mode, chains, kernelValue))
						}
						// Operand order does not depend on the stride, and
						// the chains add to the operations, so one stride
						// with chains pins every operation.
						for j := range n {
							if !pinned(n, j) || !chains || stride != strides[1] {
								continue
							}
							for k := range 4 {
								for r := range 4 {
									for _, mul := range []bool{false, true} {
										a := rowArgsOf(rng, n, stride, mode, chains, normal)
										a.pinNaNs(rng, j, k, r, mul)
										check(fmt.Sprintf("pinned j=%d row=%d batch row=%d mul=%v", j, k, r, mul), a)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
