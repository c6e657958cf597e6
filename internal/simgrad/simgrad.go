// Package simgrad generates synthetic gradient vectors with the
// statistical character the paper documents for real DNN training:
// sparsity-inducing heavy-tailed marginals (Property 2), power-law
// compressibility (Property 1), scale decay and tail sharpening over
// iterations (Figure 2), and occasional outliers that stress max-based
// threshold heuristics.
//
// It substitutes for the proprietary GPU training traces the paper
// collected: micro-benchmarks (Figures 1, 14-17) depend only on vector
// size and marginal distribution, both of which this package matches at
// the exact dimensionalities of Table 1.
package simgrad

import (
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Family selects the base marginal distribution of generated gradients.
type Family int

const (
	// FamilyLaplace draws from a double exponential.
	FamilyLaplace Family = iota
	// FamilyDoubleGamma draws from a symmetric double gamma (shape < 1:
	// sparser than Laplace).
	FamilyDoubleGamma
	// FamilyDoubleGP draws from a symmetric double generalized Pareto
	// (polynomial tail).
	FamilyDoubleGP
)

// Config parameterises a Generator.
type Config struct {
	// Dim is the gradient dimensionality.
	Dim int
	// Family is the base marginal.
	Family Family
	// Scale is the initial distribution scale (typical |g|, default 0.01).
	Scale float64
	// Shape is the family shape parameter (gamma/GP only; default 0.7 for
	// gamma, 0.2 for GP).
	Shape float64
	// ScaleDecay makes the scale shrink as training progresses:
	// scale_i = Scale / (1 + ScaleDecay * i). Zero keeps it stationary.
	ScaleDecay float64
	// SharpenRate drives the shape parameter of the gamma family toward
	// sparser values over iterations, mimicking Figure 2's faster tails
	// at iteration 10000 vs 100. Zero keeps it stationary.
	SharpenRate float64
	// OutlierFrac is the fraction of elements replaced by large-magnitude
	// outliers (default 0; micro-benchmarks of estimator robustness use
	// ~1e-5).
	OutlierFrac float64
	// OutlierScale multiplies the base scale for outliers (default 100).
	OutlierScale float64
	// Seed makes the stream deterministic.
	Seed int64
}

// Generator produces a stream of gradient vectors whose distribution
// evolves with the iteration counter.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	iter int
}

// New creates a Generator, filling config defaults.
func New(cfg Config) *Generator {
	if cfg.Dim <= 0 {
		panic("simgrad: Dim must be positive")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	if cfg.Shape <= 0 {
		switch cfg.Family {
		case FamilyDoubleGamma:
			cfg.Shape = 0.7
		case FamilyDoubleGP:
			cfg.Shape = 0.2
		}
	}
	if cfg.OutlierScale <= 0 {
		cfg.OutlierScale = 100
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// scaleAt returns the distribution scale at iteration i.
func (g *Generator) scaleAt(i int) float64 {
	return g.cfg.Scale / (1 + g.cfg.ScaleDecay*float64(i))
}

// shapeAt returns the shape parameter at iteration i (gamma sharpening).
func (g *Generator) shapeAt(i int) float64 {
	sh := g.cfg.Shape
	if g.cfg.SharpenRate > 0 {
		// Decay toward 0.3 (very sparse) without crossing it.
		sh = 0.3 + (sh-0.3)*math.Exp(-g.cfg.SharpenRate*float64(i))
	}
	return sh
}

// dist returns the marginal distribution for iteration i.
func (g *Generator) dist(i int) stats.Distribution {
	scale := g.scaleAt(i)
	switch g.cfg.Family {
	case FamilyDoubleGamma:
		return stats.DoubleGamma{Shape: g.shapeAt(i), Scale: scale}
	case FamilyDoubleGP:
		return stats.DoubleGP{Shape: g.cfg.Shape, Scale: scale}
	default:
		return stats.Laplace{Scale: scale}
	}
}

// Next returns a fresh gradient vector and advances the iteration
// counter.
func (g *Generator) Next() []float64 {
	out := make([]float64, g.cfg.Dim)
	g.Fill(out)
	return out
}

// Fill writes a fresh gradient into dst (len dst == Dim) and advances the
// iteration counter. It allows callers to reuse buffers on 100M+ element
// vectors.
func (g *Generator) Fill(dst []float64) {
	if len(dst) != g.cfg.Dim {
		panic("simgrad: Fill length mismatch")
	}
	d := g.dist(g.iter)
	for i := range dst {
		dst[i] = d.Sample(g.rng)
	}
	if g.cfg.OutlierFrac > 0 {
		n := int(g.cfg.OutlierFrac * float64(len(dst)))
		if n < 1 {
			n = 1
		}
		scale := g.scaleAt(g.iter) * g.cfg.OutlierScale
		for j := 0; j < n; j++ {
			v := scale * (1 + g.rng.ExpFloat64())
			if g.rng.Intn(2) == 0 {
				v = -v
			}
			dst[g.rng.Intn(len(dst))] = v
		}
	}
	g.iter++
}

// PowerLawFit estimates the decay exponent p of sortedAbs (|g| sorted
// descending) by least-squares regression of log magnitude on log rank
// over the top portion of the vector (indices 1..n/10, where the power
// law of Definition 1 is the binding constraint). A fitted p > 0.5
// certifies compressibility.
func PowerLawFit(sortedAbs []float64) (p float64) {
	n := len(sortedAbs) / 10
	if n < 10 {
		n = len(sortedAbs)
	}
	var sx, sy, sxx, sxy float64
	m := 0
	for j := 0; j < n; j++ {
		v := sortedAbs[j]
		if v <= 0 {
			break // sorted descending: the rest are zero too
		}
		x := math.Log(float64(j + 1))
		y := math.Log(v)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 2 {
		return math.NaN()
	}
	fm := float64(m)
	slope := (fm*sxy - sx*sy) / (fm*sxx - sx*sx)
	return -slope
}
