package dist

import (
	"fmt"

	"repro/internal/simgrad"
)

// GradProfile describes the statistical character of a workload's
// gradient stream (internal/simgrad), which the figures' iteration model
// and the step benchmark's gradient workloads compress. The
// parameters follow the paper's fitting study: all benchmarks are
// well-described by sparsity-inducing double-sided distributions whose
// scale decays and whose tail sharpens as training progresses.
type GradProfile struct {
	// Family is the base marginal distribution.
	Family simgrad.Family
	// Shape is the family shape parameter (gamma/GP families).
	Shape float64
	// Scale is the initial typical |g|.
	Scale float64
	// ScaleDecay shrinks the scale over iterations (Figure 2's decay).
	ScaleDecay float64
	// SharpenRate sharpens the tail over iterations (gamma family).
	SharpenRate float64
	// OutlierFrac injects rare large-magnitude elements that stress
	// max-based threshold heuristics.
	OutlierFrac float64
}

// Generator returns the profile's gradient stream at dimension dim.
func (p GradProfile) Generator(dim int, seed int64) *simgrad.Generator {
	return simgrad.New(simgrad.Config{
		Dim: dim, Family: p.Family, Shape: p.Shape, Scale: p.Scale,
		ScaleDecay: p.ScaleDecay, SharpenRate: p.SharpenRate,
		OutlierFrac: p.OutlierFrac, Seed: seed,
	})
}

// Workload is one row of the paper's Table 1 benchmark suite.
type Workload struct {
	// Name is the registry key ("lstm-ptb", "vgg16-cifar10", ...).
	Name string
	// Task is the human-readable task description.
	Task string
	// Dim is the model parameter count d.
	Dim int
	// BatchSize is the per-worker batch size.
	BatchSize int
	// LR is the base learning rate.
	LR float64
	// Epochs is the training budget.
	Epochs int
	// CommOverhead is the fraction of a no-compression iteration spent
	// communicating on the reference 8-node cluster (the column that
	// makes a workload communication- or compute-bound).
	CommOverhead float64
	// Optimizer names the local optimizer.
	Optimizer string
	// Quality names the benchmark's quality metric.
	Quality string
	// Grad parameterises the simulated gradient stream.
	Grad GradProfile
}

// table1 is the benchmark catalog in the paper's presentation order:
// the two RNN benchmarks, then the CIFAR-10 CNNs, then the ImageNet
// CNNs. Parameter counts match the micro-benchmark dimensions used
// throughout the figures.
var table1 = []Workload{
	{
		Name: "lstm-ptb", Task: "language modelling (PTB)",
		Dim: 66_034_000, BatchSize: 20, LR: 22, Epochs: 40,
		CommOverhead: 0.94, Optimizer: "nesterov", Quality: "perplexity",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGamma, Shape: 0.55, Scale: 0.012,
			ScaleDecay: 0.002, SharpenRate: 0.001, OutlierFrac: 5e-6},
	},
	{
		Name: "lstm-an4", Task: "speech recognition (AN4)",
		Dim: 27_569_568, BatchSize: 8, LR: 0.0003, Epochs: 80,
		CommOverhead: 0.92, Optimizer: "adam", Quality: "WER/CER",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01,
			ScaleDecay: 0.001, SharpenRate: 0.0008, OutlierFrac: 5e-6},
	},
	{
		Name: "resnet20-cifar10", Task: "image classification (CIFAR-10)",
		Dim: 269_467, BatchSize: 32, LR: 0.1, Epochs: 140,
		CommOverhead: 0.56, Optimizer: "nesterov", Quality: "top-1 accuracy",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGamma, Shape: 0.7, Scale: 0.02,
			ScaleDecay: 0.003, SharpenRate: 0.002, OutlierFrac: 1e-5},
	},
	{
		Name: "vgg16-cifar10", Task: "image classification (CIFAR-10)",
		Dim: 14_982_987, BatchSize: 32, LR: 0.1, Epochs: 140,
		CommOverhead: 0.85, Optimizer: "nesterov", Quality: "top-1 accuracy",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.015,
			ScaleDecay: 0.002, SharpenRate: 0.001, OutlierFrac: 1e-5},
	},
	{
		Name: "resnet50-imagenet", Task: "image classification (ImageNet)",
		Dim: 25_559_081, BatchSize: 64, LR: 0.1, Epochs: 90,
		CommOverhead: 0.72, Optimizer: "nesterov", Quality: "top-1 accuracy",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGamma, Shape: 0.65, Scale: 0.012,
			ScaleDecay: 0.001, SharpenRate: 0.0008, OutlierFrac: 5e-6},
	},
	{
		Name: "vgg19-imagenet", Task: "image classification (ImageNet)",
		Dim: 143_667_240, BatchSize: 64, LR: 0.01, Epochs: 90,
		CommOverhead: 0.89, Optimizer: "nesterov", Quality: "top-1 accuracy",
		Grad: GradProfile{Family: simgrad.FamilyDoubleGP, Shape: 0.2, Scale: 0.01,
			ScaleDecay: 0.001, OutlierFrac: 5e-6},
	},
}

// Table1 returns the benchmark suite in presentation order. The slice is
// a copy; callers may reorder it freely.
func Table1() []Workload {
	out := make([]Workload, len(table1))
	copy(out, table1)
	return out
}

// WorkloadByName looks up one Table 1 entry.
func WorkloadByName(name string) (Workload, error) {
	for _, wl := range table1 {
		if wl.Name == name {
			return wl, nil
		}
	}
	return Workload{}, fmt.Errorf("dist: unknown workload %q", name)
}
