package stats

import (
	"math/bits"

	"repro/internal/cpu"
)

func init() {
	if cpu.AVX2 {
		gammaSweep = gammaGroupsAVX2
		gammaQuadSweep = gammaQuadAVX2
	}
}

// gammaShuffle lines up one group of four mantissas for the two chains,
// for one 4-bit mask of the group's normal lanes (lane l normal when bit l
// is set). The layout is read by gamma_amd64.s.
type gammaShuffle struct {
	pack  [8]uint32 // VPERMPS control: the normal lanes in lane order, then the zero lanes, as float pairs
	flip  [2]uint64 // VPERMILPD control: swap the chains after an odd count of normals
	count uint64    // the count of normals: what the group adds to n
	_     uint64    // 64 bytes an entry, so the body indexes by a shift
}

// gammaLanes is the bodies' table, one entry per mask.
var gammaLanes = func() (t [16]gammaShuffle) {
	for mask := range t {
		e := &t[mask]
		slot := uint32(0)
		for _, normal := range []bool{true, false} {
			for l := range uint32(4) {
				if (mask>>l&1 == 1) == normal {
					e.pack[2*slot], e.pack[2*slot+1] = 2*l, 2*l+1
					slot++
				}
			}
		}
		e.flip = [2]uint64{0, 2} // bit 1 of lane i's control picks its source lane
		e.count = uint64(bits.OnesCount(uint(mask)))
		if e.count%2 == 1 {
			e.flip = [2]uint64{2, 0}
		}
	}
	return t
}()

// gammaGroupsAVX2 runs gammaLoop on the whole groups of four at the front
// of sub, up to the first group that holds a subnormal, ±Inf or NaN, and
// returns the state after them and how many elements that was.
//
//go:noescape
func gammaGroupsAVX2(sub, g []float64, s gammaState) (out gammaState, k int)

// gammaQuadAVX2 runs gammaGroupsAVX2 on four consecutive sumBlocks side by
// side, each onto its own state: block b's elements are
// blk[b*sumBlock:][:n] (and g's likewise), and s[b] is its state. It runs
// whole groups of four, all four blocks' groups at an index before the
// next, up to the first group that holds a subnormal, ±Inf or NaN. It
// returns the states after, k, the elements every block ran, and stop, the
// block whose group at k it stopped at: the blocks before stop have also
// run that group. stop is 4 when the run reached n&^3. The states go by
// value: through the function variable a pointer would escape.
//
//go:noescape
func gammaQuadAVX2(blk, g []float64, n int, s [4]gammaState) (out [4]gammaState, k, stop int)
