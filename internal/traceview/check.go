package traceview

import (
	"fmt"

	"repro/internal/netsim"
)

// CheckComplete verifies the assembled run is causally complete: every
// gradient message and every wire frame observed on a send side has
// exactly one matching receive, and vice versa. Half-paired messages
// mean lost telemetry, a torn-down deployment, or broken sequence
// numbering — all worth failing a gate over.
func CheckComplete(tl *Timeline) error {
	if p, so, ro := tl.PairStats(false); so != 0 || ro != 0 {
		return fmt.Errorf("traceview: gradient pairing incomplete: %d paired, %d send-only, %d recv-only", p, so, ro)
	}
	if p, so, ro := tl.PairStats(true); so != 0 || ro != 0 {
		return fmt.Errorf("traceview: wire pairing incomplete: %d paired, %d send-only, %d recv-only", p, so, ro)
	}
	return nil
}

// CheckMessageCount verifies the paired gradient-message total equals
// iters exchanges of the collective's closed-form count
// (netsim.Collective.Messages).
func CheckMessageCount(tl *Timeline, coll netsim.Collective, workers, iters int) error {
	want := iters * coll.Messages(workers)
	paired, _, _ := tl.PairStats(false)
	if paired != want {
		return fmt.Errorf("traceview: %d paired gradient messages, %s formula says %d (%d iters x %d workers)",
			paired, coll, want, iters, workers)
	}
	return nil
}
