package tensor

import "repro/internal/cpu"

// avx2Gather are the bodies in gather_amd64.s: four elements to an
// instruction, each lane doing what the Go loop does for one element
// (package doc).
var avx2Gather = gatherKernels{pairsAboveAVX2, compactAboveAVX2, excessLanesAVX2, atLeast}

// avx512Gather are the gathers in gather512_amd64.s, eight elements to an
// instruction, beside the AVX2 excess sums: a compress instruction packs
// the kept lanes where the AVX2 bodies look up a shuffle.
var avx512Gather = gatherKernels{pairsAboveAVX512, compactAboveAVX512, excessLanesAVX2, atLeastAVX512}

func init() {
	switch {
	case cpu.AVX512:
		gather = &avx512Gather
	case cpu.AVX2:
		gather = &avx2Gather
	}
}

// laneShuffle packs the kept lanes of a group of four to its front, in
// lane order, for one 4-bit comparison mask (lane l kept when bit l is
// set). The layout is read by gather_amd64.s.
type laneShuffle struct {
	pairs [8]uint32 // VPERMPS control: the kept doubles, as float pairs
	index [4]uint32 // VPERMILPS control: the kept int32 indices
	kept  uint32    // the mask's popcount: how far the cursor advances
	_     [3]uint32 // 64 bytes an entry, so the bodies index by a shift
}

// gatherLanes is the bodies' table, one entry per mask.
var gatherLanes = func() (t [16]laneShuffle) {
	for mask := range t {
		e := &t[mask]
		for l := range uint32(4) {
			if mask>>l&1 == 1 {
				e.pairs[2*e.kept], e.pairs[2*e.kept+1] = 2*l, 2*l+1
				e.index[e.kept] = l
				e.kept++
			}
		}
	}
	return t
}()

//go:noescape
func pairsAboveAVX2(blk []float64, eta float64, base int32, outM []float64, outI []int32) int

//go:noescape
func compactAboveAVX2(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int

//go:noescape
func pairsAboveAVX512(blk []float64, eta float64, base int32, outM []float64, outI []int32) int

//go:noescape
func compactAboveAVX512(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int

//go:noescape
func atLeastAVX512(g []float64, floor uint64, base int32, vals []float64, idx []int32) int

//go:noescape
func excessLanesAVX2(kept []float64, eta float64) (s, q [4]float64)
