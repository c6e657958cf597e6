// Package harness assembles the experiments: a compressor registry, the
// iteration model the simulated figures are priced with (model.go), ASCII
// table/series rendering, and one entry point per paper table/figure. The
// cmd/ binaries and the benchmark suite are thin wrappers over these
// functions, so `go test -bench` and the CLIs print the same numbers.
package harness

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
)

// CompressorNames lists the registry in the paper's presentation order.
var CompressorNames = []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}

// NewCompressor builds a fresh compressor by registry name. Stateful
// compressors (DGC's sampler, GaussianKSGD's factor) are created fresh
// per call, so each experiment run is independent; seed feeds the
// randomized ones.
func NewCompressor(name string, seed int64) (compress.Compressor, error) {
	switch name {
	case "none":
		return compress.None{}, nil
	case "topk":
		return compress.NewTopK(), nil
	case "dgc":
		return compress.NewDGC(seed), nil
	case "redsync":
		return compress.NewRedSync(), nil
	case "gaussiank":
		return compress.NewGaussianKSGD(), nil
	case "randomk":
		return compress.NewRandomK(seed, false), nil
	case "sidco-e":
		return core.NewE(), nil
	case "sidco-gp":
		return core.NewGammaGP(), nil
	case "sidco-p":
		return core.NewGP(), nil
	default:
		return nil, fmt.Errorf("harness: unknown compressor %q", name)
	}
}

// MustCompressor is NewCompressor for static names.
func MustCompressor(name string, seed int64) compress.Compressor {
	c, err := NewCompressor(name, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// factory returns a constructor closure for dist.TrainerConfig.NewCompressor.
func factory(name string, seed int64) func() compress.Compressor {
	return func() compress.Compressor { return MustCompressor(name, seed) }
}
