package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/telemetry"
)

// ChromeEvent is one record of the Chrome trace-event format ("JSON
// Object Format"), which Perfetto and chrome://tracing load directly.
// Only the event phases this exporter emits are modeled: "X" complete
// events, "M" metadata, and "s"/"f" flow arrows.
type ChromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	// TS and Dur are microseconds (the format's native unit).
	TS  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	// PID is the cluster node id; TID the lane on that node.
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
	Cat  string         `json:"cat,omitempty"`
}

// ChromeTrace is the top-level envelope Perfetto expects.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTID gives every phase a stable per-node track so overlapping
// windows (a send transmitted while compute runs) render side by side
// instead of as bogus nesting.
func chromeTID(k telemetry.SpanKind) (int32, string) {
	switch k {
	case telemetry.SpanStep, telemetry.SpanExchange, telemetry.SpanCollective, telemetry.SpanApply:
		return 0, "step"
	case telemetry.SpanCompute:
		return 1, "compute"
	case telemetry.SpanCompress, telemetry.SpanEncode:
		return 2, "compress"
	case telemetry.SpanSend, telemetry.SpanDial:
		return 3, "tx"
	case telemetry.SpanRecv:
		return 4, "rx"
	}
	return 5, "other"
}

// BuildChromeTrace converts the timeline into trace-event form: one
// process per cluster node (named "rank N"), one thread per lane, an
// "X" complete event per activity, and an "s"→"f" flow arrow per paired
// gradient message so Perfetto draws the send→recv causality.
func BuildChromeTrace(tl *Timeline) *ChromeTrace {
	tr := &ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	nodes := make(map[int32]bool)
	tids := make(map[[2]int32]string)
	for i := range tl.Activities {
		a := &tl.Activities[i]
		if a.Node < 0 {
			continue
		}
		tid, lane := chromeTID(a.Kind)
		nodes[a.Node] = true
		tids[[2]int32{a.Node, tid}] = lane
		args := map[string]any{"step": a.Step}
		if a.Seq >= 0 {
			args["seq"] = a.Seq
			args["bytes"] = a.Bytes
			args["peer"] = a.Peer
		}
		name := a.Kind.String()
		switch a.Kind {
		case telemetry.SpanSend:
			name = fmt.Sprintf("send->%d", a.Peer)
		case telemetry.SpanRecv:
			name = fmt.Sprintf("recv<-%d", a.Peer)
		}
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: name, Ph: "X", TS: a.Start / 1e3, Dur: a.Dur() / 1e3,
			PID: a.Node, TID: tid, Args: args,
		})
	}
	// Metadata events emit in sorted (node, tid) order so the exported
	// JSON is byte-identical across runs despite the map bookkeeping.
	nodeIDs := make([]int32, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	slices.Sort(nodeIDs)
	for _, n := range nodeIDs {
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", PID: n,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", n)},
		})
	}
	tidKeys := make([][2]int32, 0, len(tids))
	for k := range tids {
		tidKeys = append(tidKeys, k)
	}
	slices.SortFunc(tidKeys, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for _, k := range tidKeys {
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
			Args: map[string]any{"name": tids[k]},
		})
	}
	for i, m := range tl.Messages {
		if m.SendAct < 0 || m.RecvAct < 0 {
			continue
		}
		s, r := &tl.Activities[m.SendAct], &tl.Activities[m.RecvAct]
		stid, _ := chromeTID(telemetry.SpanSend)
		rtid, _ := chromeTID(telemetry.SpanRecv)
		tr.TraceEvents = append(tr.TraceEvents,
			ChromeEvent{
				Name: "msg", Cat: "msg", Ph: "s", ID: i + 1,
				TS: s.Start / 1e3, PID: s.Node, TID: stid,
			},
			ChromeEvent{
				Name: "msg", Cat: "msg", Ph: "f", BP: "e", ID: i + 1,
				TS: r.End / 1e3, PID: r.Node, TID: rtid,
			},
		)
	}
	return tr
}

// WriteChromeTrace writes the timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, tl *Timeline) error {
	enc := json.NewEncoder(w)
	return enc.Encode(BuildChromeTrace(tl))
}
