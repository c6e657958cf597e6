package compress

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// DGC implements the Deep Gradient Compression sparsifier (Lin et al.,
// ICLR 2018): sample a random sub-population of the gradient (1% by
// default), run Top-k on the sample to obtain a threshold, select all
// elements above it, and — if the selection overshoots the target — run a
// second, hierarchical Top-k on the exceedances to trim to exactly k.
//
// DGC estimates the threshold well (the sample quantile is consistent)
// but pays for the random gather: fast on GPU-like devices, punishing on
// CPUs (Figure 1b).
type DGC struct {
	rng *rand.Rand
	// SampleRatio is the fraction of elements sampled for threshold
	// estimation (paper default 0.01).
	SampleRatio float64
	// MinSample floors the sample size so tiny layers still estimate a
	// usable threshold.
	MinSample int

	// Per-instance scratch of the streaming fast path.
	sample  []float64
	sel     tensor.Selector
	fit     tensor.Sparse // exceedance gather before the hierarchical trim
	trimmed tensor.Sparse // Top-k over the exceedance values
	par     tensor.Par
}

// SetParallelism implements Parallelizable: the full-vector exceedance
// gather and the hierarchical trim fan out over p goroutines. The
// random sample stays sequential — it consumes the deterministic RNG
// stream in order, which is part of DGC's reproducibility contract.
func (c *DGC) SetParallelism(p int) {
	c.par.P = p
	c.sel.SetParallelism(p)
}

// NewDGC creates a DGC compressor with the paper's defaults (1% sample,
// 256-element floor) and a deterministic random stream.
func NewDGC(seed int64) *DGC {
	return &DGC{rng: rand.New(rand.NewSource(seed)), SampleRatio: 0.01, MinSample: 256}
}

// Name implements Compressor.
func (*DGC) Name() string { return "dgc" }

// CompressInto implements Compressor.
//
//sidco:hotpath
func (c *DGC) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if err := validate(g, delta); err != nil {
		return err
	}
	d := len(g)
	k := TargetK(d, delta)

	// Stage 1: random sub-sample of magnitudes.
	s := int(math.Ceil(c.SampleRatio * float64(d)))
	if s < c.MinSample {
		s = c.MinSample
	}
	if s > d {
		s = d
	}
	if cap(c.sample) < s {
		c.sample = make([]float64, s) //sidco:alloc sample scratch grows to its high-water mark, then steady state reuses it
	}
	sample := c.sample[:s]
	for i := range sample {
		sample[i] = math.Abs(g[c.rng.Intn(d)])
	}

	// Top-k on the sample yields the threshold estimate.
	ks := TargetK(s, delta)
	eta := tensor.QuickSelectKth(sample, ks)

	// Stage 2: gather exceedances from the full vector.
	fit := &c.fit
	fit.Reset(d)
	fit.Idx, fit.Vals = c.par.FilterAbove(g, eta, fit.Idx, fit.Vals)

	// Hierarchical trim: if the threshold under-shot and selected more
	// than the target, a second exact Top-k over the (much smaller)
	// exceedance set restores |selection| == k. The inner selection runs
	// over the exceedance values, so its indices are positions in fit
	// that map back to gradient indices.
	dst.Reset(d)
	if fit.NNZ() > k {
		c.trimmed.Reset(fit.NNZ())
		c.sel.TopKInto(&c.trimmed, fit.Vals, k)
		dst.Grow(k)
		for i, j := range c.trimmed.Idx {
			dst.Append(fit.Idx[j], c.trimmed.Vals[i])
		}
	} else {
		dst.CopyFrom(fit)
	}
	return nil
}
