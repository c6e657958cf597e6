package compress

import (
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// RandomK keeps k = delta*d uniformly random elements, scaled by 1/delta
// so the compressed gradient is an unbiased estimate of the original
// (Wangni et al.). It converges noticeably worse than magnitude-based
// selection (Lin et al.) and serves as the weak baseline.
type RandomK struct {
	rng *rand.Rand
	// Unbiased controls the 1/delta scaling; the paper's comparisons use
	// the unscaled variant, so the default is false.
	Unbiased bool

	// Per-instance sampling scratch: the chosen-index list, the rejection
	// set and the partial Fisher–Yates permutation.
	chosen []int
	seen   map[int]struct{}
	perm   []int
}

// NewRandomK creates a Random-k compressor with its own deterministic
// random stream.
func NewRandomK(seed int64, unbiased bool) *RandomK {
	return &RandomK{rng: rand.New(rand.NewSource(seed)), Unbiased: unbiased}
}

// Name implements Compressor.
func (*RandomK) Name() string { return "randomk" }

// CompressInto implements Compressor.
//
//sidco:hotpath
func (r *RandomK) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		return err
	}
	d := len(g)
	k := TargetK(d, delta)
	chosen := r.sampleIndices(d, k)
	slices.Sort(chosen)
	scale := 1.0
	if r.Unbiased {
		scale = float64(d) / float64(k)
	}
	dst.Reset(d)
	dst.Grow(k)
	for _, j := range chosen {
		dst.Append(int32(j), g[j]*scale)
	}
	return nil
}

// sampleIndices draws k distinct indices from [0, d) into reused scratch.
// For small k it uses rejection via a set; for large k a partial
// Fisher–Yates. The random stream it consumes is unchanged from the
// allocating version, so seeded runs stay reproducible across versions.
func (r *RandomK) sampleIndices(d, k int) []int {
	if k >= d {
		out := r.scratchChosen(d)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k*8 < d {
		if r.seen == nil {
			r.seen = make(map[int]struct{}, k)
		}
		clear(r.seen)
		out := r.scratchChosen(k)[:0]
		for len(out) < k {
			j := r.rng.Intn(d)
			if _, dup := r.seen[j]; dup {
				continue
			}
			r.seen[j] = struct{}{}
			out = append(out, j)
		}
		return out
	}
	if cap(r.perm) < d {
		r.perm = make([]int, d)
	}
	perm := r.perm[:d]
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.rng.Intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

func (r *RandomK) scratchChosen(n int) []int {
	if cap(r.chosen) < n {
		r.chosen = make([]int, n)
	}
	return r.chosen[:n]
}
