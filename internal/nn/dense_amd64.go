package nn

import "repro/internal/cpu"

// avx2Kernels are the bodies in dense_amd64.s. Each runs its Go twin's
// loop four values of j to an instruction — or, for the four-row bodies'
// ∂x dot products, four batch rows, and for their |∂W| chains four rows of
// W — as the same VMULPD and VADDPD, never a fused multiply-add, with the
// operands in the order the Go compiler puts them (package doc).
var avx2Kernels = denseKernels{axpy1AVX2, axpy2AVX2, axpy3AVX2, axpy4AVX2, gradWRows4AVX2, backwardRows4AVX2}

func init() {
	if cpu.AVX2 {
		kernels = &avx2Kernels
	}
}

//go:noescape
func axpy1AVX2(w []float64, x0 float64, o0 []float64)

//go:noescape
func axpy2AVX2(w []float64, x0, x1 float64, o0, o1 []float64)

//go:noescape
func axpy3AVX2(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64)

//go:noescape
func axpy4AVX2(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64)

//go:noescape
func gradWRows4AVX2(dst, from []float64, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64)

//go:noescape
func backwardRows4AVX2(w, dst, from []float64, ws, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64, dx *[4][4]float64)
