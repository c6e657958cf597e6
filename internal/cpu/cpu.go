// Package cpu probes, once at start-up, the instruction-set extensions the
// repository's assembly kernels need. Each package with such kernels reads
// the probe in its own init and keeps its own unexported switch between
// the kernels and their Go twins, which its tests flip.
package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: the condition for running the
// *_amd64.s kernels of internal/nn and internal/tensor. It is false on
// every other GOARCH.
var AVX2 = hasAVX2()
