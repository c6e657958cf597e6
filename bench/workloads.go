package main

import "fmt"

// ranks is the closed loop's client count: two workers, one per core of
// the reference box. Nothing in a run keeps more goroutines busy than this.
const ranks = 2

// spec freezes one workload: what runs, at which size, and for how long
// it warms up. Every performance claim names one of these by Name; the
// sizes below are part of the benchmark and change only in a PR that
// changes nothing else.
type spec struct {
	Name string
	Why  string
	// Kind is "train" (dist.Trainer + cluster.Node per rank, real
	// backpropagation) or "grad" (pre-generated gradients through
	// compressor -> cluster.Engine -> apply).
	Kind string
	// Compressor is "sidco-e", "sidco-gp", "topk" or "none".
	Compressor string
	Delta      float64
	Collective string // "allgather", "ring" or "ps"
	Wire       string // "lossless" or "bitmap"
	Transport  string // "tcp" or "chan"

	// train: Flatten -> Dense(In,Hidden) -> ReLU -> Dense(Hidden,Hidden)
	// -> ReLU -> Dense(Hidden,Classes) on data.Images C x H x W.
	ImageC, ImageH, ImageW int
	Hidden, Classes        int
	DatasetN, Batch        int
	Noise                  float64 // pixel noise: high enough that the loss falls over hundreds of steps, not tens
	LR                     float64
	// TargetLoss is the 20-step moving mean of the global loss that
	// time_to_target_s waits for; not reaching it fails the run.
	TargetLoss float64

	// grad: Dim-element vectors drawn from the Table 1 workload Profile's
	// gradient distribution, Pool of them per worker, cycled.
	Dim     int
	Profile string
	Pool    int

	// Warmup steps run untimed before measuring: the sidco stage
	// controller needs about 80 steps before k-hat/k settles near 1.
	Warmup int
	// Window is the number of leading timed steps over which the exactly
	// repeating metrics (bytes, nnz, k-hat error, loss) are taken, so they
	// do not depend on how many steps fit into the measuring time.
	Window int
	// RefSteps is how many leading steps are compared against the
	// in-process reference (train) or dist.InProcess (grad).
	RefSteps int
}

// lossWindow is the moving-mean length of time_to_target_s and final_loss.
const lossWindow = 20

func (s spec) inputDim() int { return s.ImageC * s.ImageH * s.ImageW }

// modelDim is the trained parameter count d.
func (s spec) modelDim() int {
	if s.Kind == "grad" {
		return s.Dim
	}
	in := s.inputDim()
	return in*s.Hidden + s.Hidden + s.Hidden*s.Hidden + s.Hidden + s.Hidden*s.Classes + s.Classes
}

var trainBase = spec{
	Kind: "train", Transport: "tcp",
	ImageC: 3, ImageH: 16, ImageW: 16, Hidden: 1024, Classes: 10,
	DatasetN: 4096, Batch: 4, Noise: 5, LR: 0.02, TargetLoss: 1.3,
	Warmup: 120, Window: 180, RefSteps: 50,
}

var gradBase = spec{
	Kind: "grad", Transport: "chan", Collective: "allgather", Wire: "lossless",
	Dim: 1 << 21, Pool: 6, Warmup: 120, Window: 100, RefSteps: 50,
}

func withSpec(base spec, edit func(*spec)) spec {
	edit(&base)
	return base
}

// workloads lists the five frozen workloads in reporting order.
var workloads = []spec{
	withSpec(trainBase, func(s *spec) {
		s.Name = "train-sidco-tcp"
		s.Why = "real training as sidco-node ships it (sidco-e + EC, all-gather, TCP loopback): the one workload where every layer works"
		s.Compressor, s.Delta, s.Collective, s.Wire = "sidco-e", 0.01, "allgather", "lossless"
	}),
	withSpec(trainBase, func(s *spec) {
		s.Name = "train-dense-tcp"
		s.Why = "the paper's no-compression baseline (ring all-reduce over TCP): transport and dense reduce work most, compress/encoding not at all"
		s.Compressor, s.Delta, s.Collective, s.Wire = "none", 1, "ring", "lossless"
	}),
	withSpec(gradBase, func(s *spec) {
		s.Name = "grad-sidcoe-d2m"
		s.Why = "gradient path only at d=2^21 (beyond L2), sidco-e at delta 0.001: stats fit and threshold gather dominate, payloads are tiny"
		s.Compressor, s.Delta, s.Profile = "sidco-e", 0.001, "lstm-ptb"
	}),
	withSpec(gradBase, func(s *spec) {
		s.Name = "grad-sidcogp-d2m"
		s.Why = "same loop with the gamma/GP fit on a double-GP profile: the fit costs several times sidco-e's, so a fit speed-up shows here first"
		s.Compressor, s.Delta, s.Profile = "sidco-gp", 0.01, "vgg19-imagenet"
	}),
	withSpec(gradBase, func(s *spec) {
		s.Name = "grad-topk-bitmap-ps"
		s.Why = "cache-resident ResNet-20 dimension, exact top-k at delta 0.1, bitmap wire through a parameter server: select, encode/decode and the server's re-encode work, no fit"
		s.Compressor, s.Delta, s.Profile = "topk", 0.1, "resnet20-cifar10"
		s.Dim, s.Collective, s.Wire = 269_467, "ps", "bitmap"
	}),
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to smoke-test size (d around 4096, a dozen
// steps) while keeping every layer it exercises in play.
func (s spec) tiny() spec {
	s.Warmup, s.Window, s.RefSteps = 6, 6, 4
	if s.Kind == "train" {
		s.ImageH, s.ImageW, s.Hidden, s.DatasetN = 4, 4, 56, 64
		s.TargetLoss = 0
		return s
	}
	s.Dim, s.Pool = 4096, 2
	if s.Delta < 0.01 {
		s.Delta = 0.01
	}
	return s
}
