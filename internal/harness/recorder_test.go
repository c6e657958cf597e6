package harness

import (
	"math"
	"sync"
	"testing"
)

func TestRecorderCapturesRequestedIterations(t *testing.T) {
	r := newGradRecorder(false, 0, 5)
	for i := 0; i < 10; i++ {
		r.observe(i, []float64{float64(i), 1})
	}
	got, err := r.snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("snapshot content = %v", got)
	}
	if _, err := r.snapshot(3); err == nil {
		t.Error("unrequested iteration should error")
	}
	if len(r.snap) != 2 {
		t.Errorf("recorded %d iterations, want 2", len(r.snap))
	}
}

func TestRecorderCopiesTheSlice(t *testing.T) {
	r := newGradRecorder(false, 0)
	buf := []float64{1, 2}
	r.observe(0, buf)
	buf[0] = 99 // the trainer reuses its buffer
	got, err := r.snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("recorder must copy, not alias, the gradient")
	}
}

func TestRecorderNormalizes(t *testing.T) {
	r := newGradRecorder(true, 0)
	r.observe(0, []float64{3, 4})
	got, err := r.snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	norm := math.Hypot(got[0], got[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("normalized snapshot has norm %v", norm)
	}
}

// TestRecorderConcurrentObserve hammers one Recorder from many
// goroutines mixing observe with snapshot — the documented concurrency
// contract. Run under -race (CI does) this is the
// regression test for the unlocked-map version of the Recorder.
func TestRecorderConcurrentObserve(t *testing.T) {
	const goroutines, iters = 8, 200
	want := make([]int, iters)
	for i := range want {
		want[i] = i
	}
	r := newGradRecorder(true, want...)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := []float64{3, 4}
			for i := g; i < iters; i += goroutines {
				r.observe(i, buf)
				if s, err := r.snapshot(i); err != nil || len(s) != 2 {
					t.Errorf("snapshot %d: %v (len %d)", i, err, len(s))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.snap); got != iters {
		t.Errorf("recorded %d iterations, want %d", got, iters)
	}
}

func TestRecorderZeroGradient(t *testing.T) {
	r := newGradRecorder(true, 0)
	r.observe(0, []float64{0, 0})
	got, err := r.snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero norm must not produce NaNs.
	if math.IsNaN(got[0]) {
		t.Error("zero gradient normalized to NaN")
	}
}
