package stats

import "repro/internal/cpu"

func init() {
	if cpu.AVX2 {
		absQuadSweep, absReadSweep = absQuadAVX2, absReadAVX2
	}
}

// absQuadAVX2 is absQuad in AVX2 (abs_amd64.s): the same four chains, the
// same bits. blk and g must each hold at least 4·sumBlock elements; it
// reads and writes the first 4·sumBlock.
//
//go:noescape
func absQuadAVX2(blk, g []float64) (s0, s1, s2, s3 float64)

// absReadAVX2 is absRead in AVX2 (abs_amd64.s): the same four chains, the
// same bits. blk must hold at least 4·sumBlock elements; it reads the
// first 4·sumBlock and writes nothing.
//
//go:noescape
func absReadAVX2(blk []float64) (s0, s1, s2, s3 float64)
