// Package device models the compression-op latency of GPU-like and
// CPU-like devices. The paper's micro-benchmarks (Figures 1, 12, 14-17)
// hinge on two architectural facts this model encodes: sorting/Top-k is
// disproportionately slow on GPUs relative to streaming passes, and random
// gather (DGC's sampling) is disproportionately slow on CPUs. Rates are
// calibrated so the *relative* ordering and rough factors of the paper's
// figures hold; absolute times are synthetic.
package device

import (
	"fmt"
	"math"
)

// Profile describes a compression device by the throughput of its
// primitive operations.
type Profile struct {
	// Name labels the device ("gpu", "cpu").
	Name string
	// StreamRate is elements/second for sequential elementwise passes
	// (abs, compare-and-count, mean/variance accumulation).
	StreamRate float64
	// SortRate is element*log2(element) units/second for comparison
	// sorting — the Top-k path on throughput devices.
	SortRate float64
	// SelectRate is elements/second for linear-time selection
	// (quickselect) — the Top-k path on latency devices.
	SelectRate float64
	// GatherRate is elements/second for random-index gather (DGC
	// sampling, Random-k).
	GatherRate float64
	// PassOverhead is the fixed cost of launching one pass/kernel.
	PassOverhead float64
	// TopkUsesSort selects the sort-based Top-k path (GPUs) instead of
	// quickselect (CPUs).
	TopkUsesSort bool
	// ComputeRate is model-FLOPs/second for the forward+backward pass,
	// used by the training-timeline model.
	ComputeRate float64
}

// GPU returns the GPU-like profile (V100-era calibration).
func GPU() Profile {
	return Profile{
		Name:         "gpu",
		StreamRate:   1.5e10,
		SortRate:     2.5e9,
		SelectRate:   2.5e9, // GPU selection is sort-like; kept equal
		GatherRate:   6e9,
		PassOverhead: 8e-6,
		TopkUsesSort: true,
		ComputeRate:  1.2e13,
	}
}

// CPU returns the CPU-like profile (Xeon-era calibration).
func CPU() Profile {
	return Profile{
		Name:         "cpu",
		StreamRate:   1.2e9,
		SortRate:     1.2e8,
		SelectRate:   3.2e8,
		GatherRate:   6e7,
		PassOverhead: 2e-7,
		TopkUsesSort: false,
		ComputeRate:  2e11,
	}
}

// stream returns the cost of one streaming pass over n elements.
func (p Profile) stream(n int) float64 {
	return float64(n)/p.StreamRate + p.PassOverhead
}

// sortCost returns the cost of comparison-sorting n elements.
func (p Profile) sortCost(n int) float64 {
	if n < 2 {
		return p.PassOverhead
	}
	return float64(n)*math.Log2(float64(n))/p.SortRate + p.PassOverhead
}

// selectCost returns the cost of linear-time selection over n elements.
func (p Profile) selectCost(n int) float64 {
	return 2*float64(n)/p.SelectRate + p.PassOverhead // ~2n expected touches
}

// gather returns the cost of randomly gathering n elements.
func (p Profile) gather(n int) float64 {
	return float64(n)/p.GatherRate + p.PassOverhead
}

// topk returns the device's exact Top-k cost over d elements.
func (p Profile) topk(d int) float64 {
	if p.TopkUsesSort {
		return p.stream(d) + p.sortCost(d) // abs pass + sort
	}
	return p.stream(d) + p.selectCost(d)
}

// CompressLatency returns the modelled latency in seconds for compressor
// name (the Compressor.Name() strings of internal/compress and
// internal/core) on a d-dimensional gradient at ratio delta. stages is the
// SIDCo stage count M (ignored for others).
func (p Profile) CompressLatency(name string, d int, delta float64, stages int) (float64, error) {
	k := int(math.Max(1, math.Round(delta*float64(d))))
	switch name {
	case "none":
		return 0, nil
	case "topk", "topk+ec":
		return p.topk(d), nil
	case "dgc", "dgc+ec":
		s := int(math.Max(256, 0.01*float64(d))) // 1% sample
		// Index generation/permutation touches the full vector at gather
		// rate (the documented reason DGC collapses on CPUs), then sort
		// the sample, one filter pass, and a hierarchical trim over the
		// ~2k exceedances.
		return p.gather(d) + p.sortCost(s) + p.stream(d) + p.topk(2*k), nil
	case "redsync", "redsync+ec":
		// mean+max pass, ~5 effective half-vector count probes of the
		// bounded binary search, then the filter pass.
		return p.stream(d) + 5*p.stream(d)/2 + p.stream(d), nil
	case "gaussiank", "gaussiank+ec":
		// mean pass + variance pass + filter pass.
		return 3 * p.stream(d), nil
	case "sidco-e", "sidco-e+ec":
		return p.sidco(d, stages, 1), nil
	case "sidco-gp", "sidco-gp+ec", "sidco-p", "sidco-p+ec":
		// The gamma/GP variants read g once in the first stage, like
		// sidco-e, but accumulate a second moment — for the gamma fit a
		// log-moment, taken from exponent sums and mantissa products
		// with no logarithm per element — so the pass does the work of
		// two to three plain ones (4.4 ms against 1.6 ms for the mean
		// alone at d = 2^21 on the reference CPU; it was 21 ms, thirteen
		// passes, with a math.Log per element).
		return p.sidco(d, stages, 2), nil
	case "randomk", "randomk+ec":
		return p.gather(k), nil
	default:
		return 0, fmt.Errorf("device: unknown compressor %q", name)
	}
}

// sidco composes the multi-stage estimator cost: firstPassCount fitting
// passes over d, then geometrically shrinking exceedance stages (ratio
// delta1 = 0.25 per stage), then the final filter pass over d.
func (p Profile) sidco(d, stages int, firstPassCount int) float64 {
	if stages < 1 {
		stages = 1
	}
	cost := float64(firstPassCount) * p.stream(d)
	remaining := float64(d)
	for m := 1; m < stages; m++ {
		remaining *= 0.25
		cost += p.stream(int(remaining)) * 2 // fit + filter on exceedances
	}
	return cost + p.stream(d) // final threshold filter
}

// ComputeTime returns the modelled forward+backward time for a model with
// the given parameter count and per-worker batch size, using the standard
// ~6 FLOPs per parameter per sample estimate (2 forward + 4 backward).
func (p Profile) ComputeTime(params, batch int) float64 {
	return 6 * float64(params) * float64(batch) / p.ComputeRate
}
