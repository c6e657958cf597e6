package cpu

// hasAVX2 reads CPUID leaf 7 for AVX2, leaf 1 for OSXSAVE and AVX, and
// XCR0 for the XMM and YMM state bits.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// hasAVX512 reads CPUID leaf 7 for AVX-512F and VL, leaf 1 for POPCNT
// (the bodies count a mask with it), and XCR0 for the opmask and both
// upper ZMM state bits. It assumes hasAVX2: OSXSAVE is set, so XGETBV
// does not fault.
func hasAVX512() bool {
	const popcnt = 1 << 23
	if _, _, ecx, _ := cpuid(1, 0); ecx&popcnt == 0 {
		return false
	}
	const xmmState, ymmState, opmaskState, zmmHi256State, hi16ZMMState = 1 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7
	const zmm = xmmState | ymmState | opmaskState | zmmHi256State | hi16ZMMState
	if xcr0, _ := xgetbv(); xcr0&zmm != zmm {
		return false
	}
	const avx512f, avx512vl = 1 << 16, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512vl != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
