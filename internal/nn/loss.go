package nn

import (
	"fmt"
	"math"
)

// Loss computes a scalar training loss and the gradient of the loss with
// respect to the network output (averaged over the batch).
type Loss interface {
	// Name identifies the loss.
	Name() string
	// Forward returns the mean loss for logits/outputs y against targets.
	// The target encoding is loss-specific.
	Forward(y *Tensor, targets []int) float64
	// Backward returns dLoss/dy for the most recent Forward.
	Backward() *Tensor
}

// SoftmaxCrossEntropy is the softmax + negative log-likelihood loss over
// class logits. It accepts outputs of shape [N, C] or [B, T, C] (flattened
// to [B*T, C]); targets are class indices, one per row, with -1 marking
// positions to ignore (sequence padding).
type SoftmaxCrossEntropy struct {
	probs   []float64
	targets []int
	rows    int
	classes int
	shape   []int
	counted int
	grad    *Tensor
}

// Name implements Loss.
func (*SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// Forward implements Loss.
func (s *SoftmaxCrossEntropy) Forward(y *Tensor, targets []int) float64 {
	classes := y.Shape[len(y.Shape)-1]
	rows := y.Len() / classes
	if len(targets) != rows {
		panic(fmt.Sprintf("nn: xent: %d targets for %d rows", len(targets), rows))
	}
	s.rows, s.classes = rows, classes
	s.shape = append(s.shape[:0], y.Shape...)
	s.targets = append(s.targets[:0], targets...)
	if cap(s.probs) < y.Len() {
		s.probs = make([]float64, y.Len())
	}
	s.probs = s.probs[:y.Len()]

	total := 0.0
	s.counted = 0
	for r := 0; r < rows; r++ {
		row := y.Data[r*classes : (r+1)*classes]
		probs := s.probs[r*classes : (r+1)*classes]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			probs[j] = e
			sum += e
		}
		for j := range probs {
			probs[j] /= sum
		}
		if t := targets[r]; t >= 0 {
			if t >= classes {
				panic(fmt.Sprintf("nn: xent: target %d out of %d classes", t, classes))
			}
			total += -math.Log(math.Max(probs[t], 1e-300))
			s.counted++
		}
	}
	if s.counted == 0 {
		return 0
	}
	return total / float64(s.counted)
}

// Backward implements Loss.
func (s *SoftmaxCrossEntropy) Backward() *Tensor {
	grad := ensure(&s.grad, s.shape...)
	if s.counted == 0 {
		return grad
	}
	inv := 1.0 / float64(s.counted)
	for r := 0; r < s.rows; r++ {
		t := s.targets[r]
		if t < 0 {
			continue
		}
		probs := s.probs[r*s.classes : (r+1)*s.classes]
		out := grad.Data[r*s.classes : (r+1)*s.classes]
		for j, p := range probs {
			out[j] = p * inv
		}
		out[t] -= inv
	}
	return grad
}

// Perplexity converts a mean cross-entropy (nats) to perplexity — the
// quality metric of the PTB benchmark.
func Perplexity(meanXent float64) float64 { return math.Exp(meanXent) }
