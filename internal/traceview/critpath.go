package traceview

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Segment is one piece of a critical path: the window during which the
// named activity was the reason the step had not finished yet.
type Segment struct {
	// Kind is the binding activity's phase (send/recv/compute/compress),
	// or the Kind of the successor when Slack is set.
	Kind telemetry.SpanKind
	// Node owns the activity; for receives Peer is the sending rank the
	// receiver was waiting on — the straggler attribution edge.
	Node, Peer int32
	// Start and End bound the segment in global nanoseconds.
	Start, End float64
	// Slack marks an unattributed gap: no observed activity ended at
	// the moment the successor needed it (wall-clock runs only; the
	// virtual clock binds every start exactly).
	Slack bool
}

// CriticalPath is the longest chain of causally bound activities ending
// at a step's last event: the work that set the step's duration. Every
// other activity overlapped something on this chain.
type CriticalPath struct {
	// Step is the step the path was extracted for, -1 for all events.
	Step int64
	// StartNanos/EndNanos bound the path; TotalNanos is their
	// difference and equals the sum of all segment widths.
	StartNanos, EndNanos, TotalNanos float64
	// Segments in chronological order.
	Segments []Segment
	// ByKind sums non-slack segment time per phase.
	ByKind map[telemetry.SpanKind]float64
	// WaitOnRank sums critical-path receive time by the *sending* rank:
	// how long the path was blocked waiting for each peer's data — the
	// straggler attribution.
	WaitOnRank map[int32]float64
	// SlackNanos is the total unattributed gap time.
	SlackNanos float64
}

// laneFor maps an activity to the serialized resource it occupies on
// its node: the NIC transmit queue (sends) or the clock lane (receives
// and compute — cluster.Instrumented advances one clock through both —
// and, on wall timelines, the worker's compression, which runs on the
// same thread).
type lane int

const (
	laneTx lane = iota
	laneClock
	laneNone
)

func laneFor(k telemetry.SpanKind) lane {
	switch k {
	case telemetry.SpanSend:
		return laneTx
	case telemetry.SpanRecv, telemetry.SpanCompute, telemetry.SpanCompress:
		return laneClock
	}
	return laneNone
}

// CriticalPath extracts the critical path of one step (or of the whole
// timeline when step < 0) by walking backward from the latest-ending
// activity. At every hop the predecessor is the event whose end equals
// the current activity's start: cluster.Instrumented computes each start
// as a max over resource-free times and message arrival, and stores the
// winning float bit-exactly, so on virtual timelines the binding
// predecessor matches with zero tolerance. A receive additionally binds
// to its paired send when the sender's start time is what gated it —
// that hop crosses ranks and is what attributes wait time to the
// straggler. On wall-clock timelines exact binding is impossible;
// unattributed gaps become Slack segments.
func (tl *Timeline) CriticalPath(step int64) (*CriticalPath, error) {
	// Filter to the step's schedulable activities and build per-node
	// lane orderings.
	var acts []int
	lanes := make(map[int32]*[2][]int)
	for i := range tl.Activities {
		a := &tl.Activities[i]
		l := laneFor(a.Kind)
		if l == laneNone || (step >= 0 && a.Step != step) {
			continue
		}
		acts = append(acts, i)
		nl := lanes[a.Node]
		if nl == nil {
			nl = &[2][]int{}
			lanes[a.Node] = nl
		}
		nl[l] = append(nl[l], i)
	}
	if len(acts) == 0 {
		return nil, fmt.Errorf("traceview: no schedulable activities for step %d", step)
	}
	for _, nl := range lanes {
		for l := range nl {
			ids := nl[l]
			sort.Slice(ids, func(x, y int) bool {
				ax, ay := &tl.Activities[ids[x]], &tl.Activities[ids[y]]
				if ax.End != ay.End {
					return ax.End < ay.End
				}
				return ids[x] < ids[y]
			})
		}
	}
	// Paired send of each receive activity, for the cross-rank hop.
	sendOfRecv := make(map[int]int)
	for _, m := range tl.Messages {
		if m.SendAct >= 0 && m.RecvAct >= 0 {
			sendOfRecv[m.RecvAct] = m.SendAct
		}
	}

	// Start from the latest-ending activity (prefer receives, then
	// lower node id, for a deterministic choice among exact ties).
	cur := acts[0]
	for _, i := range acts[1:] {
		a, b := &tl.Activities[i], &tl.Activities[cur]
		switch {
		case a.End > b.End:
			cur = i
		case a.End == b.End:
			aRecv, bRecv := a.Kind == telemetry.SpanRecv, b.Kind == telemetry.SpanRecv
			if (aRecv && !bRecv) || (aRecv == bRecv && (a.Node < b.Node || (a.Node == b.Node && i < cur))) {
				cur = i
			}
		}
	}

	cp := &CriticalPath{
		Step:       step,
		EndNanos:   tl.Activities[cur].End,
		ByKind:     make(map[telemetry.SpanKind]float64),
		WaitOnRank: make(map[int32]float64),
	}
	frontier := tl.Activities[cur].End

	// latestAtOrBefore returns the lane activity with the greatest end
	// ≤ t, excluding the current activity itself.
	latestAtOrBefore := func(node int32, l lane, t float64, exclude int) (int, bool) {
		nl := lanes[node]
		if nl == nil {
			return 0, false
		}
		ids := nl[l]
		for x := len(ids) - 1; x >= 0; x-- {
			if ids[x] == exclude {
				continue
			}
			if tl.Activities[ids[x]].End <= t {
				return ids[x], true
			}
		}
		return 0, false
	}

	for hops := 0; ; hops++ {
		if hops > 2*len(acts)+4 {
			return nil, fmt.Errorf("traceview: critical-path walk did not terminate (cycle in bindings?)")
		}
		a := &tl.Activities[cur]
		target := a.Start

		// Candidate predecessors: the activity's own lane plus the
		// cross-lane gates Instrumented's start computation maxes over.
		type cand struct {
			idx     int
			ready   float64
			viaSend bool
		}
		var cands []cand
		add := func(node int32, l lane) {
			if idx, ok := latestAtOrBefore(node, l, target, cur); ok {
				cands = append(cands, cand{idx, tl.Activities[idx].End, false})
			}
		}
		switch a.Kind {
		case telemetry.SpanSend:
			add(a.Node, laneTx)    // previous transmit finishing
			add(a.Node, laneClock) // the node's clock reaching the send
		case telemetry.SpanRecv:
			add(a.Node, laneClock) // rx chain / clock
			if s, ok := sendOfRecv[cur]; ok {
				sa := &tl.Activities[s]
				if sa.Start <= target {
					cands = append(cands, cand{s, sa.Start, true})
				}
			}
		case telemetry.SpanCompute, telemetry.SpanCompress:
			add(a.Node, laneClock)
		}

		best, found := cand{}, false
		for _, c := range cands {
			if !found || c.ready > best.ready ||
				(c.ready == best.ready && ((c.viaSend && !best.viaSend) ||
					(c.viaSend == best.viaSend && c.idx < best.idx))) {
				best, found = c, true
			}
		}

		// Attribute [start, frontier] to the current activity; the
		// frontier then retreats to the binding predecessor's ready
		// time, with any gap recorded as slack.
		if frontier > a.Start {
			cp.Segments = append(cp.Segments, Segment{
				Kind: a.Kind, Node: a.Node, Peer: a.Peer,
				Start: a.Start, End: frontier,
			})
			cp.ByKind[a.Kind] += frontier - a.Start
			if a.Kind == telemetry.SpanRecv && a.Peer >= 0 {
				cp.WaitOnRank[a.Peer] += frontier - a.Start
			}
		}
		if !found {
			cp.StartNanos = a.Start
			break
		}
		if a.Start > best.ready {
			cp.Segments = append(cp.Segments, Segment{
				Kind: a.Kind, Node: a.Node, Peer: a.Peer,
				Start: best.ready, End: a.Start, Slack: true,
			})
			cp.SlackNanos += a.Start - best.ready
		}
		frontier = min(frontier, best.ready)
		cur = best.idx
	}

	// The walk emitted segments newest-first; flip to chronological.
	for i, j := 0, len(cp.Segments)-1; i < j; i, j = i+1, j-1 {
		cp.Segments[i], cp.Segments[j] = cp.Segments[j], cp.Segments[i]
	}
	cp.TotalNanos = cp.EndNanos - cp.StartNanos
	return cp, nil
}

// Rollup is one node's summed busy time per phase.
type Rollup struct {
	// Node is the rank (or the PS server's node id).
	Node int32
	// Busy sums activity durations per phase in nanoseconds.
	Busy map[telemetry.SpanKind]float64
	// Sends/Recvs count message activities; SentBytes/RecvBytes sum
	// their payloads.
	Sends, Recvs         int
	SentBytes, RecvBytes int64
}

// Rollups sums per-node, per-phase busy time over the step (all events
// when step < 0), sorted by node id — the global per-phase view the
// report prints.
func (tl *Timeline) Rollups(step int64) []Rollup {
	byNode := make(map[int32]*Rollup)
	for i := range tl.Activities {
		a := &tl.Activities[i]
		if a.Node < 0 || (step >= 0 && a.Step != step) {
			continue
		}
		r := byNode[a.Node]
		if r == nil {
			r = &Rollup{Node: a.Node, Busy: make(map[telemetry.SpanKind]float64)}
			byNode[a.Node] = r
		}
		r.Busy[a.Kind] += a.Dur()
		switch a.Kind {
		case telemetry.SpanSend:
			r.Sends++
			r.SentBytes += a.Bytes
		case telemetry.SpanRecv:
			r.Recvs++
			r.RecvBytes += a.Bytes
		}
	}
	out := make([]Rollup, 0, len(byNode))
	for _, r := range byNode {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// RecvWaitMatrix sums receive-side window time per (receiver, sender)
// link over the step (all steps when step < 0). On wall timelines the
// windows are the blocked time inside Recv — straggler plus network
// wait; on virtual timelines they are NIC receive occupancy (use the
// critical path's WaitOnRank for gating attribution there).
func (tl *Timeline) RecvWaitMatrix(step int64) map[[2]int32]float64 {
	m := make(map[[2]int32]float64)
	for _, msg := range tl.Messages {
		if !msg.HasRecv || (step >= 0 && msg.Step != step) {
			continue
		}
		m[[2]int32{msg.To, msg.From}] += msg.RecvEnd - msg.RecvStart
	}
	return m
}
