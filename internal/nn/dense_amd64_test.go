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

// kernelArgs are one kernel call's inputs: a row of W, of ∂W and of
// partial sums, how ∂W is written, four x, four ∂y rows and four output
// rows. A kernel reads the ones it takes.
type kernelArgs struct {
	w, wg, part []float64
	mode        sumMode
	x           [4]float64
	g, o        [4][]float64
}

// sumMode is how a ∂W kernel starts and stores its sums: the from and add
// arguments Dense.backward passes.
type sumMode uint8

const (
	accumulate sumMode = iota // from wg, stored
	assign                    // from +0, stored
	addInto                   // from +0, added into wg
	finish                    // from a row of partial sums, added into wg
)

var sumModes = []sumMode{accumulate, assign, addInto, finish}

func (m sumMode) String() string {
	return [...]string{"accumulate", "assign", "add", "finish"}[m]
}

// from and add are the kernel arguments a's mode stands for.
func (a kernelArgs) from() []float64 {
	switch a.mode {
	case accumulate:
		return a.wg
	case finish:
		return a.part
	}
	return nil
}

func (a kernelArgs) add() bool { return a.mode >= addInto }

// kernelCalls run each kernel of a set on the args and return everything
// it wrote, sums included.
var kernelCalls = []struct {
	name string
	sums bool // writes ∂W, so takes a sumMode
	call func(k *denseKernels, a kernelArgs) []float64
}{
	{"axpy1", false, func(k *denseKernels, a kernelArgs) []float64 {
		k.axpy1(a.w, a.x[0], a.o[0])
		return a.o[0]
	}},
	{"axpy2", false, func(k *denseKernels, a kernelArgs) []float64 {
		k.axpy2(a.w, a.x[0], a.x[1], a.o[0], a.o[1])
		return slices.Concat(a.o[:2]...)
	}},
	{"axpy3", false, func(k *denseKernels, a kernelArgs) []float64 {
		k.axpy3(a.w, a.x[0], a.x[1], a.x[2], a.o[0], a.o[1], a.o[2])
		return slices.Concat(a.o[:3]...)
	}},
	{"axpy4", false, func(k *denseKernels, a kernelArgs) []float64 {
		k.axpy4(a.w, a.x[0], a.x[1], a.x[2], a.x[3], a.o[0], a.o[1], a.o[2], a.o[3])
		return slices.Concat(a.o[:]...)
	}},
	{"gradW4", true, func(k *denseKernels, a kernelArgs) []float64 {
		k.gradW4(a.wg, a.from(), a.add(), a.x[0], a.x[1], a.x[2], a.x[3], a.g[0], a.g[1], a.g[2], a.g[3])
		return a.wg
	}},
	{"backward4", true, func(k *denseKernels, a kernelArgs) []float64 {
		s0, s1, s2, s3 := k.backward4(a.w, a.wg, a.from(), a.add(), a.x[0], a.x[1], a.x[2], a.x[3], a.g[0], a.g[1], a.g[2], a.g[3])
		return append(slices.Clone(a.wg), s0, s1, s2, s3)
	}},
}

// clone copies the rows a kernel writes, so each set starts from the same
// bits.
func (a kernelArgs) clone() kernelArgs {
	a.wg = slices.Clone(a.wg)
	for r := range a.o {
		a.o[r] = slices.Clone(a.o[r])
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

// kernelArgsOf draws one call's args of width n, each value by draw.
func kernelArgsOf(rng *rand.Rand, n int, mode sumMode, draw func(*rand.Rand) float64) kernelArgs {
	row := func() []float64 {
		r := make([]float64, n)
		for j := range r {
			r[j] = draw(rng)
		}
		return r
	}
	a := kernelArgs{w: row(), wg: row(), part: row(), mode: mode}
	for r := range a.x {
		a.x[r] = draw(rng)
		a.g[r], a.o[r] = row(), row()
	}
	return a
}

// pinNaNs puts NaNs of their own payloads into finite args so that at j
// row r's multiplies (mul) or adds (!mul) meet a NaN in both operands and
// the result shows which operand came first:
//   - mul: x_r, w[j] and g_r[j]. Nothing before j is a NaN, so every sum
//     a product joins is finite until it.
//   - add: w[j], ∂W[j], the partial sum at j, o_r[j], g_r[j] and g_0[j]
//     (so that a sum started from +0 is a NaN before row r, and an
//     added-into ∂W meets a NaN sum), and w[j-1] (so that every ∂x sum is
//     one). The other rows' products at j are finite.
func (a *kernelArgs) pinNaNs(rng *rand.Rand, j, r int, mul bool) {
	a.w[j], a.g[r][j] = nanBits(rng), nanBits(rng)
	if mul {
		a.x[r] = nanBits(rng)
		return
	}
	a.wg[j], a.part[j], a.o[r][j], a.g[0][j] = nanBits(rng), nanBits(rng), nanBits(rng), nanBits(rng)
	if j > 0 {
		a.w[j-1] = nanBits(rng)
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
// math.Float64bits: every element written and every sum returned. Widths
// 0–9 put every tail length on both sides of the four-lane body, 1023–1025
// a row wider than the benchmark's; gradW4 and backward4 run in every
// sumMode: accumulating, assigning, adding into ∂W, and adding a row of
// partial sums' total into it. Random calls draw from ±0, subnormals, ±Inf, NaNs and
// normals whose products underflow or overflow. Pinned calls make one
// row's multiplies or adds meet a NaN in both operands at one j, for every
// row and for each of the first eight and last three j — every lane of the
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
	widths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1023, 1024, 1025}
	for _, kc := range kernelCalls {
		for _, n := range widths {
			for _, mode := range sumModes {
				if mode != accumulate && !kc.sums {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n)))
				check := func(what string, a kernelArgs) {
					want := kc.call(&goKernels, a.clone())
					got := kc.call(&avx2Kernels, a.clone())
					bitsEqual(t, fmt.Sprintf("%s width=%d mode=%v %s", kc.name, n, mode, what), got, want)
				}
				for seed := range 4 {
					check(fmt.Sprintf("random %d", seed), kernelArgsOf(rng, n, mode, kernelValue))
				}
				for j := range n {
					if j >= 8 && j < n-3 {
						continue
					}
					for r := range 4 {
						for _, mul := range []bool{false, true} {
							a := kernelArgsOf(rng, n, mode, normal)
							a.pinNaNs(rng, j, r, mul)
							check(fmt.Sprintf("pinned j=%d row=%d mul=%v", j, r, mul), a)
						}
					}
				}
			}
		}
	}
}
