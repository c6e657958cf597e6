package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// TestLoopbackStudy runs the four-way comparison end to end over real
// loopback sockets: the study itself errors if the per-rank node
// deployment disagrees with itself, and the rendered table must report
// exact traffic and an all-zero diff column (bit-identity of every mode
// against the in-process trainer).
func TestLoopbackStudy(t *testing.T) {
	var buf bytes.Buffer
	err := LoopbackStudy(&buf, LoopbackStudyConfig{Workers: 3, Iters: 3, Compressor: "topk", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "exact=true") {
		t.Errorf("traffic cross-check not exact:\n%s", out)
	}
	if strings.Contains(out, "exact=false") {
		t.Errorf("traffic mismatch reported:\n%s", out)
	}
	// Every data row ends in the max-|diff| column; bit-identity means
	// each one renders as exactly "0".
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] != "iter" && !strings.HasPrefix(fields[0], "-") && !strings.Contains(line, "—") {
			rows++
			if fields[5] != "0" {
				t.Errorf("iteration %s: max |diff| = %s, want 0 (bit-identity):\n%s", fields[0], fields[5], out)
			}
		}
	}
	if rows != 3 {
		t.Errorf("found %d data rows, want 3:\n%s", rows, out)
	}
}

// gradCapture is an exchange that records every worker's dense gradient
// per step and aggregates to zero, so the weights never move and a
// gradient is a pure function of the batch that produced it.
type gradCapture struct {
	grads map[[2]int][]float64 // (step, worker) -> gradient
}

func (c *gradCapture) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	for _, in := range ins {
		c.grads[[2]int{step, in.Worker}] = tensor.Clone(in.Dense)
	}
	tensor.Zero(agg)
	return nil
}

// TestDemoTrainerSplitsDrawSameBatches pins the property sidco-node
// -check relies on: one Workers=4 demo trainer and four Workers=1
// trainers at FirstWorker 0..3 build the same model and draw the same
// per-worker batch streams, so every (step, worker) gradient is
// bit-equal.
func TestDemoTrainerSplitsDrawSameBatches(t *testing.T) {
	const workers, steps = 4, 3
	run := func(c *gradCapture, n, first int) {
		t.Helper()
		tr, err := DemoTrainer(dist.TrainerConfig{Workers: n, FirstWorker: first, Seed: 9, Exchange: c}, "none")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Run(steps); err != nil {
			t.Fatal(err)
		}
	}
	whole := &gradCapture{grads: map[[2]int][]float64{}}
	run(whole, workers, 0)
	split := &gradCapture{grads: map[[2]int][]float64{}}
	for r := 0; r < workers; r++ {
		run(split, 1, r)
	}
	if len(whole.grads) != workers*steps || len(split.grads) != workers*steps {
		t.Fatalf("captured %d and %d gradients, want %d each", len(whole.grads), len(split.grads), workers*steps)
	}
	for key, want := range whole.grads {
		got := split.grads[key]
		if len(got) != len(want) {
			t.Fatalf("step %d worker %d: split run captured %d values, want %d", key[0], key[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d worker %d: gradient[%d] = %v, one-trainer run has %v", key[0], key[1], i, got[i], want[i])
			}
		}
	}
	// Distinct workers must not share a stream, or the check above is vacuous.
	a, b := whole.grads[[2]int{0, 0}], whole.grads[[2]int{0, 1}]
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("workers 0 and 1 drew identical batches")
	}
}
