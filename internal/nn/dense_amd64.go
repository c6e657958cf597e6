package nn

import "repro/internal/cpu"

// avx2Kernels are the bodies in dense_amd64.s. Each runs its Go twin's
// loop four values of j to an instruction — or, for backward4's ∂x dot
// products, four batch rows — as the same VMULPD and VADDPD, never a fused
// multiply-add, with the operands in the order the Go compiler puts them
// (package doc).
var avx2Kernels = denseKernels{axpy1AVX2, axpy2AVX2, axpy3AVX2, axpy4AVX2, gradW4AVX2, backward4AVX2}

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
func gradW4AVX2(wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64)

//go:noescape
func backward4AVX2(w, wg []float64, assign bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) (s0, s1, s2, s3 float64)
