package traceview

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// fmtNS renders nanoseconds with a unit that keeps 3-4 significant
// digits readable across the virtual (sub-ms) and wall (ms-s) regimes.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// reportKinds is the phase order of the rollup table.
var reportKinds = []telemetry.SpanKind{
	telemetry.SpanCompute, telemetry.SpanCompress, telemetry.SpanEncode,
	telemetry.SpanSend, telemetry.SpanRecv, telemetry.SpanCollective,
	telemetry.SpanExchange, telemetry.SpanApply, telemetry.SpanStep,
}

// WriteReport prints the human-readable analysis: stream alignment,
// pairing outcomes, per-step per-node phase rollups, the critical path
// with its phase decomposition, and straggler attribution.
func WriteReport(w io.Writer, tl *Timeline) error {
	mode := "wall-clock"
	if tl.Virtual {
		mode = "virtual (alpha-beta clock)"
	}
	fmt.Fprintf(w, "trace assembly: %d stream(s), %s time\n", len(tl.Streams), mode)
	for i, s := range tl.Streams {
		bound := "exact"
		switch {
		case math.IsNaN(s.SkewBoundNanos): // crossedBound
			bound = "crossed stamps, no bound"
		case math.IsInf(s.SkewBoundNanos, 1):
			// One-directional traffic only: the offset satisfies the
			// causality constraints but the interval is unbounded above.
			bound = "one-sided bound"
		case s.SkewBoundNanos > 0:
			bound = "±" + fmtNS(s.SkewBoundNanos)
		case s.SkewBoundNanos < 0:
			bound = "unaligned"
		}
		fmt.Fprintf(w, "  stream %d: node %d, %d events, clock offset %+.0fns (%s)\n",
			i, s.Meta.Node, len(s.Events), s.OffsetNanos, bound)
	}
	gp, gs, gr := tl.PairStats(false)
	fmt.Fprintf(w, "gradient messages: %d paired, %d send-only, %d recv-only\n", gp, gs, gr)
	if wp, ws, wr := tl.PairStats(true); wp+ws+wr > 0 {
		fmt.Fprintf(w, "wire messages:     %d paired, %d send-only, %d recv-only\n", wp, ws, wr)
	}

	steps := tl.Steps
	if len(steps) == 0 {
		steps = []int64{-1}
	}
	for _, step := range steps {
		if step >= 0 {
			fmt.Fprintf(w, "\nstep %d\n", step)
		} else {
			fmt.Fprintf(w, "\nall events\n")
		}
		for _, r := range tl.Rollups(step) {
			fmt.Fprintf(w, "  node %d:", r.Node)
			for _, k := range reportKinds {
				if d, ok := r.Busy[k]; ok {
					fmt.Fprintf(w, " %s=%s", k, fmtNS(d))
				}
			}
			if r.Sends+r.Recvs > 0 {
				fmt.Fprintf(w, " (%d sends/%dB, %d recvs/%dB)", r.Sends, r.SentBytes, r.Recvs, r.RecvBytes)
			}
			fmt.Fprintln(w)
		}
		cp, err := tl.CriticalPath(step)
		if err != nil {
			fmt.Fprintf(w, "  critical path: %v\n", err)
			continue
		}
		fmt.Fprintf(w, "  critical path: %s over %d segment(s)\n", fmtNS(cp.TotalNanos), len(cp.Segments))
		kinds := make([]telemetry.SpanKind, 0, len(cp.ByKind))
		for k := range cp.ByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(w, "    %-9s %s\n", k, fmtNS(cp.ByKind[k]))
		}
		if cp.SlackNanos > 0 {
			fmt.Fprintf(w, "    %-9s %s\n", "slack", fmtNS(cp.SlackNanos))
		}
		if len(cp.WaitOnRank) > 0 {
			ranks := make([]int32, 0, len(cp.WaitOnRank))
			for r := range cp.WaitOnRank {
				ranks = append(ranks, r)
			}
			sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
			fmt.Fprintf(w, "  waiting on rank:")
			for _, r := range ranks {
				fmt.Fprintf(w, " %d=%s", r, fmtNS(cp.WaitOnRank[r]))
			}
			fmt.Fprintln(w)
		}
		if m := tl.RecvWaitMatrix(step); len(m) > 0 {
			keys := make([][2]int32, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i][0] != keys[j][0] {
					return keys[i][0] < keys[j][0]
				}
				return keys[i][1] < keys[j][1]
			})
			fmt.Fprintf(w, "  recv windows (to<-from):")
			for _, k := range keys {
				fmt.Fprintf(w, " %d<-%d=%s", k[0], k[1], fmtNS(m[k]))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
