package harness

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// gradRecorder captures gradient snapshots from live training at chosen
// iterations, so the fitting and compressibility studies (Figures 2, 7,
// 8) analyse the same vectors the compressors saw.
//
// It is safe for concurrent use: observe and snapshot may be called from
// any goroutine. dist.Trainer happens to serialise its OnGradient
// callback today (only worker 0 taps, between step barriers), but the
// recorder does not rely on that — a recorder shared across trainers, or
// a future per-worker tap, stays race-free. observe copies the observed
// slice before storing it, so the caller may reuse the buffer
// immediately; slices returned by snapshot are owned by the recorder and
// must be treated as read-only.
type gradRecorder struct {
	// normalize divides each snapshot by its l2 norm before storage,
	// matching the paper's preprocessing in Appendix B.2.
	normalize bool

	mu   sync.Mutex
	want map[int]struct{}  // immutable after newGradRecorder; read lock-free
	snap map[int][]float64 // guarded by mu
}

// newGradRecorder records the given iterations (0-based).
func newGradRecorder(normalize bool, iters ...int) *gradRecorder {
	r := &gradRecorder{normalize: normalize, want: map[int]struct{}{}, snap: map[int][]float64{}}
	for _, i := range iters {
		r.want[i] = struct{}{}
	}
	return r
}

// observe is the dist.TrainerConfig.OnGradient callback.
func (r *gradRecorder) observe(iter int, flat []float64) {
	if _, ok := r.want[iter]; !ok {
		// want is written only by newGradRecorder, so the miss path stays
		// lock-free — the common case when sampling a few iterations out
		// of a long run.
		return
	}
	cp := tensor.Clone(flat)
	if r.normalize {
		if n := tensor.Norm2(cp); n > 0 {
			tensor.Scale(1/n, cp)
		}
	}
	r.mu.Lock()
	r.snap[iter] = cp
	r.mu.Unlock()
}

// snapshot returns the recorded gradient for an iteration. The returned
// slice is shared with the recorder: callers must not modify it.
func (r *gradRecorder) snapshot(iter int) ([]float64, error) {
	r.mu.Lock()
	s, ok := r.snap[iter]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("harness: no gradient snapshot for iteration %d", iter)
	}
	return s, nil
}
