// Package cpu probes, once at start-up, the instruction-set extensions the
// repository's assembly kernels need. Each package with such kernels reads
// the probe in its own init and keeps its own unexported switch between
// the kernels and their Go twins, which its tests flip.
package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: the condition for running the
// *_amd64.s kernels of internal/nn, internal/stats and internal/tensor.
// It is false on every other GOARCH.
var AVX2 = hasAVX2()

// AVX512 reports whether, beyond AVX2, the CPU has AVX-512F and VL and
// POPCNT, and the OS saves the opmask and ZMM registers: the condition
// for running internal/tensor's gather512_amd64.s. It is false on every
// other GOARCH.
var AVX512 = AVX2 && hasAVX512()
