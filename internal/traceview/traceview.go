// Package traceview assembles per-rank telemetry JSONL streams into one
// merged global timeline and analyzes it: send/recv pairing by per-link
// sequence number, per-rank clock alignment, per-step critical-path
// extraction, straggler attribution, per-phase rollups, and export to
// Chrome trace-event JSON (Perfetto-loadable) and a plaintext report.
//
// Two time domains exist. Engine runs with a Scenario carry EventVirtual
// records on cluster.Instrumented's alpha-beta clock; assembly then works
// purely in virtual nanoseconds, and on a dyadic fabric
// (netsim.DyadicLab) the assembled critical path equals netsim's closed
// forms exactly. Real deployments carry only wall-clock counters; assembly
// then estimates per-rank monotonic-clock offsets from paired messages
// (each i→j message proves off_j − off_i ≥ sendTS_i − recvTS_j) and the
// timeline is wall nanoseconds on rank 0's axis, accurate to within half
// the minimum round-trip between ranks.
package traceview

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/telemetry"
)

// Stream is one rank's decoded telemetry stream plus the clock
// alignment Assemble computed for it.
type Stream struct {
	// Meta is the stream's leading self-description record.
	Meta telemetry.Meta
	// Events are the decoded records in emission order.
	Events []telemetry.Event
	// OffsetNanos is added to this stream's wall timestamps to place
	// them on the global (stream 0) axis. Zero for stream 0 and in
	// virtual mode (one shared virtual clock).
	OffsetNanos float64
	// SkewBoundNanos bounds the offset estimation error: half the
	// width of the feasible interval the message constraints leave,
	// accumulated along the alignment spanning tree. -1 when the
	// stream could not be aligned (no paired messages reach it); NaN
	// when a hop on its path has an empty interval (some send stamped
	// after its own receive), where no bound holds.
	SkewBoundNanos float64
}

// ReadFile decodes one telemetry JSONL file into a Stream.
func ReadFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	meta, events, err := telemetry.DecodeJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Stream{Meta: meta, Events: events}, nil
}

// Activity is one busy window on the global timeline: a span, a virtual
// send/recv/compute/compress window, or (wall mode) a message event
// reconstructed from counters.
type Activity struct {
	// Kind is the phase; sends and receives use SpanSend/SpanRecv.
	Kind telemetry.SpanKind
	// Node is the owning node; Peer the link peer for send/recv
	// (send: Peer=to, recv: Peer=from), else -1.
	Node, Peer int32
	// Step is the training iteration, -1 when unscoped.
	Step int64
	// Seq is the link sequence number for send/recv, else -1.
	Seq int64
	// Bytes is the payload size for send/recv, else 0.
	Bytes int64
	// Start and End bound the window in global nanoseconds.
	Start, End float64
	// Stream indexes Timeline.Streams.
	Stream int
}

// Dur returns the window length in nanoseconds.
func (a Activity) Dur() float64 { return a.End - a.Start }

// Message is one paired (or half-paired) directed message.
type Message struct {
	// From and To are the sending and receiving node ids.
	From, To int32
	// Seq is the per-directed-link sequence number.
	Seq int64
	// Step is the training iteration the message belongs to, -1 for
	// wire-level traffic.
	Step int64
	// Bytes is the payload size (gradient) or frame size (wire).
	Bytes int64
	// Wire marks raw TCP traffic (frames + handshakes) as opposed to
	// gradient-layer messages.
	Wire bool
	// HasSend/HasRecv say which sides were observed.
	HasSend, HasRecv bool
	// SendStream/RecvStream index Timeline.Streams, -1 when unseen.
	SendStream, RecvStream int
	// SendStart..RecvEnd bound the two sides in global nanoseconds.
	// Wall mode has point sends (SendStart == SendEnd).
	SendStart, SendEnd, RecvStart, RecvEnd float64
	// SendAct/RecvAct index Timeline.Activities, -1 when the side has
	// no activity (wire traffic never does).
	SendAct, RecvAct int
}

// Timeline is the assembled global view of one run.
type Timeline struct {
	// Virtual is true when the run carries EventVirtual records; all
	// times are then virtual nanoseconds (exact on a dyadic fabric).
	Virtual bool
	// Streams are the inputs, with their computed clock offsets.
	Streams []*Stream
	// Activities are all busy windows, sorted by Start.
	Activities []Activity
	// Messages are the gradient-layer messages, sorted by (From, To,
	// Seq).
	Messages []Message
	// WireMessages are raw TCP frames and handshakes, same order.
	WireMessages []Message
	// Steps are the distinct step ids (≥ 0) seen on activities and
	// messages, ascending.
	Steps []int64
}

// PairStats counts pairing outcomes over the chosen message layer.
func (tl *Timeline) PairStats(wire bool) (paired, sendOnly, recvOnly int) {
	msgs := tl.Messages
	if wire {
		msgs = tl.WireMessages
	}
	for _, m := range msgs {
		switch {
		case m.HasSend && m.HasRecv:
			paired++
		case m.HasSend:
			sendOnly++
		default:
			recvOnly++
		}
	}
	return
}

// pairKey identifies one directed message within a layer.
type pairKey struct {
	from, to int32
	seq      int64
}

// msgDraft accumulates the per-side observations of one message before
// it becomes a Message.
type msgDraft struct {
	m        Message
	sendStep int64
	recvStep int64
}

// sortedPairKeys returns the draft map's keys in (from, to, seq) order
// — the canonical message order every map-derived output follows so
// assembly is deterministic.
func sortedPairKeys(m map[pairKey]*msgDraft) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.seq < b.seq
	})
	return keys
}

// Assemble merges the streams into one global timeline. It pairs sends
// with receives by (from, to, seq) — exact, because every transport in
// this repo is FIFO per directed link — estimates per-stream clock
// offsets in wall mode, and validates cross-side consistency (paired
// byte counts and steps must agree).
func Assemble(streams []*Stream) (*Timeline, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("traceview: no streams")
	}
	tl := &Timeline{Streams: streams}
	for _, s := range streams {
		for i := range s.Events {
			if s.Events[i].Type == telemetry.EventVirtual {
				tl.Virtual = true
			}
		}
	}

	if err := alignClocks(streams, tl.Virtual); err != nil {
		return nil, err
	}

	grad := make(map[pairKey]*msgDraft)
	wire := make(map[pairKey]*msgDraft)
	draft := func(m map[pairKey]*msgDraft, k pairKey, isWire bool) *msgDraft {
		d := m[k]
		if d == nil {
			d = &msgDraft{m: Message{
				From: k.from, To: k.to, Seq: k.seq, Step: -1, Wire: isWire,
				SendStream: -1, RecvStream: -1, SendAct: -1, RecvAct: -1,
			}, sendStep: -1, recvStep: -1}
			m[k] = d
		}
		return d
	}

	for si, s := range streams {
		off := s.OffsetNanos
		for i := range s.Events {
			e := &s.Events[i]
			switch e.Type {
			case telemetry.EventVirtual:
				a := Activity{
					Kind: e.Span, Node: e.Node, Peer: e.Peer,
					Step: e.Step, Seq: e.Seq, Bytes: e.Value,
					Start: e.VStartNanos, End: e.VEndNanos,
					Stream: si,
				}
				idx := len(tl.Activities)
				tl.Activities = append(tl.Activities, a)
				switch e.Span {
				case telemetry.SpanSend:
					d := draft(grad, pairKey{e.Node, e.Peer, e.Seq}, false)
					d.m.HasSend, d.m.SendStream, d.m.SendAct = true, si, idx
					d.m.SendStart, d.m.SendEnd = a.Start, a.End
					d.m.Bytes, d.sendStep = e.Value, e.Step
				case telemetry.SpanRecv:
					d := draft(grad, pairKey{e.Peer, e.Node, e.Seq}, false)
					d.m.HasRecv, d.m.RecvStream, d.m.RecvAct = true, si, idx
					d.m.RecvStart, d.m.RecvEnd = a.Start, a.End
					d.recvStep = e.Step
					if !d.m.HasSend {
						d.m.Bytes = e.Value
					}
				}
			case telemetry.EventSpan:
				if tl.Virtual {
					// Wall spans live on a different axis than the
					// virtual clock; they carry no virtual position.
					continue
				}
				ts := float64(e.WallNanos) + off
				tl.Activities = append(tl.Activities, Activity{
					Kind: e.Span, Node: e.Node, Peer: e.Peer,
					Step: e.Step, Seq: -1,
					Start: ts - float64(e.DurNanos), End: ts, Stream: si,
				})
			case telemetry.EventCounter:
				if e.Seq < 0 {
					continue // plain counter, not a link message
				}
				ts := float64(e.WallNanos) + off
				switch e.Counter {
				case telemetry.CounterWireSentBytes:
					d := draft(wire, pairKey{e.Node, e.Peer, e.Seq}, true)
					d.m.HasSend, d.m.SendStream = true, si
					d.m.SendStart, d.m.SendEnd = ts, ts
					d.m.Bytes = e.Value
				case telemetry.CounterWireRecvBytes:
					d := draft(wire, pairKey{e.Node, e.Peer, e.Seq}, true)
					d.m.HasRecv, d.m.RecvStream = true, si
					d.m.RecvStart, d.m.RecvEnd = ts, ts
					if !d.m.HasSend {
						d.m.Bytes = e.Value
					}
				case telemetry.CounterSentMessages:
					d := draft(grad, pairKey{e.Node, e.Peer, e.Seq}, false)
					d.m.HasSend, d.m.SendStream = true, si
					d.m.SendStart, d.m.SendEnd = ts, ts
					d.sendStep = e.Step
				case telemetry.CounterSentBytes:
					d := draft(grad, pairKey{e.Node, e.Peer, e.Seq}, false)
					d.m.Bytes = e.Value
				case telemetry.CounterRecvMessages:
					d := draft(grad, pairKey{e.Node, e.Peer, e.Seq}, false)
					d.m.HasRecv, d.m.RecvStream = true, si
					d.m.RecvStart, d.m.RecvEnd = ts, ts
					d.recvStep = e.Step
				case telemetry.CounterRecvWaitNanos:
					// (Node=to, Peer=from): the blocked window inside
					// Recv, ending at the counter's timestamp.
					d := draft(grad, pairKey{e.Peer, e.Node, e.Seq}, false)
					d.m.RecvStart = ts - float64(e.Value)
					d.m.RecvEnd = ts
				}
			}
		}
	}

	// In wall mode, materialize gradient messages as point/window
	// activities so the timeline and Chrome export show them. Sorted
	// key order keeps equal-Start activities (the SliceStable below
	// preserves insertion order on ties) deterministic across runs.
	if !tl.Virtual {
		for _, k := range sortedPairKeys(grad) {
			d := grad[k]
			if d.m.HasSend {
				d.m.SendAct = len(tl.Activities)
				tl.Activities = append(tl.Activities, Activity{
					Kind: telemetry.SpanSend, Node: d.m.From, Peer: d.m.To,
					Step: d.sendStep, Seq: d.m.Seq, Bytes: d.m.Bytes,
					Start: d.m.SendStart, End: d.m.SendEnd, Stream: d.m.SendStream,
				})
			}
			if d.m.HasRecv {
				d.m.RecvAct = len(tl.Activities)
				tl.Activities = append(tl.Activities, Activity{
					Kind: telemetry.SpanRecv, Node: d.m.To, Peer: d.m.From,
					Step: d.recvStep, Seq: d.m.Seq, Bytes: d.m.Bytes,
					Start: d.m.RecvStart, End: d.m.RecvEnd, Stream: d.m.RecvStream,
				})
			}
		}
	}

	flatten := func(m map[pairKey]*msgDraft) ([]Message, error) {
		keys := sortedPairKeys(m)
		out := make([]Message, 0, len(keys))
		for _, k := range keys {
			d := m[k]
			if d.m.HasSend && d.m.HasRecv && !d.m.Wire &&
				d.sendStep >= 0 && d.recvStep >= 0 && d.sendStep != d.recvStep {
				return nil, fmt.Errorf("traceview: message %d->%d seq %d sent in step %d but received in step %d",
					k.from, k.to, k.seq, d.sendStep, d.recvStep)
			}
			if d.m.HasSend {
				d.m.Step = d.sendStep
			} else {
				d.m.Step = d.recvStep
			}
			out = append(out, d.m)
		}
		return out, nil
	}
	var err error
	if tl.Messages, err = flatten(grad); err != nil {
		return nil, err
	}
	if tl.WireMessages, err = flatten(wire); err != nil {
		return nil, err
	}

	sort.SliceStable(tl.Activities, func(i, j int) bool {
		return tl.Activities[i].Start < tl.Activities[j].Start
	})
	// The sort moved activities; re-link messages by (from, to, seq).
	sendIdx := make(map[pairKey]int)
	recvIdx := make(map[pairKey]int)
	for i, a := range tl.Activities {
		switch a.Kind {
		case telemetry.SpanSend:
			if a.Seq >= 0 {
				sendIdx[pairKey{a.Node, a.Peer, a.Seq}] = i
			}
		case telemetry.SpanRecv:
			if a.Seq >= 0 {
				recvIdx[pairKey{a.Peer, a.Node, a.Seq}] = i
			}
		}
	}
	for i := range tl.Messages {
		m := &tl.Messages[i]
		k := pairKey{m.From, m.To, m.Seq}
		m.SendAct, m.RecvAct = -1, -1
		if idx, ok := sendIdx[k]; ok {
			m.SendAct = idx
		}
		if idx, ok := recvIdx[k]; ok {
			m.RecvAct = idx
		}
	}

	steps := make(map[int64]bool)
	for _, a := range tl.Activities {
		if a.Step >= 0 {
			steps[a.Step] = true
		}
	}
	for _, m := range tl.Messages {
		if m.Step >= 0 {
			steps[m.Step] = true
		}
	}
	for s := range steps {
		tl.Steps = append(tl.Steps, s)
	}
	sort.Slice(tl.Steps, func(i, j int) bool { return tl.Steps[i] < tl.Steps[j] })
	return tl, nil
}

// crossedBound marks a SkewBoundNanos whose alignment path crosses an
// empty interval: the one-sided constraints contradict each other, so
// the offset is the midpoint of that contradiction and unbounded.
var crossedBound = math.NaN()

// alignClocks estimates per-stream monotonic-clock offsets onto stream
// 0's axis. Every observed i→j message (wire or gradient layer) gives
// the one-sided constraint off_j − off_i ≥ sendTS_i − recvTS_j, since
// the send truly happened before the receive. With traffic in both
// directions the feasible interval is [L_ij, −L_ji] (L the per-direction
// max of sendTS − recvTS); the midpoint is the estimate and half the
// width — at most half the minimum round-trip — bounds its error. On the
// Instrumented virtual clock all streams share one axis and every offset
// is trivially zero.
func alignClocks(streams []*Stream, virtual bool) error {
	for _, s := range streams {
		s.OffsetNanos, s.SkewBoundNanos = 0, 0
	}
	if virtual || len(streams) == 1 {
		return nil
	}

	// Streams are matched by node id: a message's sides live in the
	// streams owned by its endpoints.
	byNode := make(map[int32]int)
	for i, s := range streams {
		if s.Meta.Node < 0 {
			return fmt.Errorf("traceview: stream %d has no node id (meta.node = %d); multi-stream alignment needs per-rank streams", i, s.Meta.Node)
		}
		if prev, dup := byNode[int32(s.Meta.Node)]; dup {
			return fmt.Errorf("traceview: streams %d and %d both claim node %d", prev, i, s.Meta.Node)
		}
		byNode[int32(s.Meta.Node)] = i
	}

	// Wire and gradient layers each have their own per-link seq space,
	// so the probe key carries the layer to keep their pairings apart.
	type probeKey struct {
		k    pairKey
		wire bool
	}
	type side struct {
		stream int
		ts     int64
	}
	sends := make(map[probeKey]side)
	// L[i][j] = max over i→j messages of sendTS − recvTS (local nanos).
	L := make([][]float64, len(streams))
	seen := make([][]bool, len(streams))
	for i := range L {
		L[i] = make([]float64, len(streams))
		seen[i] = make([]bool, len(streams))
		for j := range L[i] {
			L[i][j] = math.Inf(-1)
		}
	}
	observe := func(pk probeKey, isSend bool, si int, ts int64) {
		// A message names its endpoints; only the endpoint that owns
		// the stream contributes its side.
		if isSend {
			if byNode[pk.k.from] == si {
				sends[pk] = side{si, ts}
			}
			return
		}
		if byNode[pk.k.to] != si {
			return
		}
		s, ok := sends[pk]
		if !ok {
			return
		}
		d := float64(s.ts - ts)
		if d > L[s.stream][si] {
			L[s.stream][si] = d
		}
		seen[s.stream][si] = true
	}
	// Two passes: all sends first, then receives, so pairing does not
	// depend on the order streams were passed in.
	for pass := 0; pass < 2; pass++ {
		for si, s := range streams {
			for i := range s.Events {
				e := &s.Events[i]
				if e.Type != telemetry.EventCounter || e.Seq < 0 {
					continue
				}
				k := pairKey{e.Node, e.Peer, e.Seq}
				switch e.Counter {
				case telemetry.CounterWireSentBytes:
					if pass == 0 {
						observe(probeKey{k, true}, true, si, e.WallNanos)
					}
				case telemetry.CounterSentMessages:
					if pass == 0 {
						observe(probeKey{k, false}, true, si, e.WallNanos)
					}
				case telemetry.CounterWireRecvBytes:
					if pass == 1 {
						observe(probeKey{k, true}, false, si, e.WallNanos)
					}
				case telemetry.CounterRecvMessages:
					if pass == 1 {
						observe(probeKey{k, false}, false, si, e.WallNanos)
					}
				}
			}
		}
	}

	// BFS a spanning tree from stream 0 over pairs with traffic.
	const unaligned = -1.0
	off := make([]float64, len(streams))
	bound := make([]float64, len(streams))
	done := make([]bool, len(streams))
	for i := range bound {
		bound[i] = unaligned
	}
	queue := []int{0}
	done[0], bound[0] = true, 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := range streams {
			if done[j] || (!seen[i][j] && !seen[j][i]) {
				continue
			}
			lo, hi := math.Inf(-1), math.Inf(1)
			if seen[i][j] {
				lo = L[i][j] // off_j − off_i ≥ L[i][j]
			}
			if seen[j][i] {
				hi = -L[j][i] // off_j − off_i ≤ −L[j][i]
			}
			var rel, halfWidth float64
			switch {
			case seen[i][j] && seen[j][i] && hi < lo:
				rel, halfWidth = (lo+hi)/2, crossedBound
			case seen[i][j] && seen[j][i]:
				rel, halfWidth = (lo+hi)/2, (hi-lo)/2
			case seen[i][j]:
				rel, halfWidth = lo, math.Inf(1)
			default:
				rel, halfWidth = hi, math.Inf(1)
			}
			off[j] = off[i] + rel
			bound[j] = bound[i] + halfWidth
			done[j] = true
			queue = append(queue, j)
		}
	}
	for i, s := range streams {
		if !done[i] {
			s.OffsetNanos, s.SkewBoundNanos = 0, -1
			continue
		}
		s.OffsetNanos, s.SkewBoundNanos = off[i], bound[i]
	}
	return nil
}
