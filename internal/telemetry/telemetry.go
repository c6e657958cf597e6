// Package telemetry is the structured observability layer of the
// reproduction: spans (monotonic wall-clock durations of the training
// step's phases — compute, compress, encode, the collective exchange,
// the optimizer apply — per worker and node) and counters
// (messages and bytes per directed link, steps, receive-wait time, dial
// retries, selected-vs-target elements and selection corrections per
// worker) emitted to pluggable sinks.
//
// Three sinks ship: Aggregator keeps in-memory totals with percentile
// summaries and renders the Prometheus plaintext exposition format,
// JSONL streams one JSON object per event to a writer, and Handler
// serves an Aggregator over HTTP (/metrics, /healthz, /debug/pprof).
//
// Each kind is described once. spanNames names the span kinds;
// counterRows gives each counter kind its name (the JSONL value and the
// sidco_<name>_total family), its attribution (a directed link or a
// node) and its help text. String, DecodeJSONL, the Aggregator's per-link
// and per-node split and WritePrometheus all read these tables, so a new
// kind is one constant and one row.
//
// The hot-path contract is that a nil *Tracer is a valid disabled
// tracer: Begin returns a zero Span, End and Count return immediately,
// and none of them allocate — instrumentation can stay unconditionally
// in tight loops (dist.Trainer.Step, cluster's collective schedules,
// the transports) at zero cost when telemetry is off. With a live
// tracer the built-in sinks are allocation-free in steady state too
// (guarded by AllocsPerRun tests).
//
// Exactness: counter events are integer deltas, so aggregated message
// and byte totals are exact — in instrumented runs they must equal
// cluster.Instrumented's counters and netsim's collective message
// formulas, which the cluster tests assert. Observability here is
// cross-checked against the analytic model, not merely plausible.
package telemetry

import (
	"time"
)

// SpanKind names a traced phase of the training loop.
type SpanKind uint8

const (
	// SpanStep is one full synchronous training step (dist.Trainer.Step).
	SpanStep SpanKind = iota
	// SpanCompute is one worker's batch draw + forward + backward pass.
	SpanCompute
	// SpanCompress is one worker's gradient compression (CompressInto).
	SpanCompress
	// SpanEncode is one wire encoding of a selection.
	SpanEncode
	// SpanExchange is the trainer-side gradient exchange: the full
	// GradientExchange call, whichever strategy backs it.
	SpanExchange
	// SpanApply is the optimizer update: StepSparse over the merged sparse
	// mean or StepFlat over a dense aggregate (CounterApplyElems says
	// which, by size), or one StepSpan over a chunk a dense ring handed
	// over inside the exchange (one span per chunk).
	SpanApply
	// SpanCollective is one node's share of one collective round
	// (cluster's sched: ring / all-gather / parameter-server), or one
	// served round on the PS node.
	SpanCollective
	// SpanDial is a TCP link's connection establishment, retries
	// included.
	SpanDial
	// SpanSend is one message's occupancy of the sender's NIC on the
	// Instrumented virtual clock (EventVirtual only).
	SpanSend
	// SpanRecv is one message's occupancy of the receiver's NIC on the
	// Instrumented virtual clock (EventVirtual only).
	SpanRecv

	numSpanKinds
)

// spanNames are the span kinds' JSONL values and Prometheus span labels.
var spanNames = [numSpanKinds]string{
	SpanStep:       "step",
	SpanCompute:    "compute",
	SpanCompress:   "compress",
	SpanEncode:     "encode",
	SpanExchange:   "exchange",
	SpanApply:      "apply",
	SpanCollective: "collective",
	SpanDial:       "dial",
	SpanSend:       "send",
	SpanRecv:       "recv",
}

// String implements fmt.Stringer: the kind's spanNames entry.
func (k SpanKind) String() string {
	if k >= numSpanKinds {
		return "unknown"
	}
	return spanNames[k]
}

// CounterKind names a monotonic counter. Link-attributed kinds carry
// the directed link in (Node, Peer) = (from, to); node-attributed kinds
// carry the owning node in Node. counterRows says which a kind is.
type CounterKind uint8

const (
	// CounterSentMessages counts gradient-traffic messages sent on a
	// link (Node=from, Peer=to), at the same layer as
	// cluster.Instrumented — totals must match Instrumented.Totals().
	CounterSentMessages CounterKind = iota
	// CounterSentBytes counts gradient payload bytes sent on a link.
	CounterSentBytes
	// CounterRecvMessages counts gradient messages delivered on a link.
	CounterRecvMessages
	// CounterRecvBytes counts gradient payload bytes delivered on a link.
	CounterRecvBytes
	// CounterSteps counts completed training steps (Node = the
	// trainer's first global worker id).
	CounterSteps
	// CounterRecvWaitNanos accumulates wall-clock nanoseconds a node
	// (Node=to, Peer=from) spent blocked in Recv — the straggler +
	// network wait of the synchronous schedules.
	CounterRecvWaitNanos
	// CounterDialRetries counts failed TCP dial attempts that were
	// retried on a link (Node=from, Peer=to).
	CounterDialRetries
	// CounterWireSentBytes counts raw TCP bytes written on a link:
	// payloads plus the 4-byte frame headers plus the 12-byte
	// connection handshake.
	CounterWireSentBytes
	// CounterWireRecvBytes counts raw TCP bytes read on a link.
	CounterWireRecvBytes
	// CounterSelectedElems counts the elements a worker's compressor
	// shipped (Node = the worker), step by step: beside
	// CounterTargetElems it is the achieved-vs-target ratio k-hat/k the
	// paper's estimation-quality claim is about.
	CounterSelectedElems
	// CounterTargetElems counts the elements the worker's compressor was
	// asked for: k = round(delta*d) per step.
	CounterTargetElems
	// CounterSelectListCorrections counts the steps whose threshold
	// estimate missed the tolerance band and was re-taken, exactly, from an
	// exceedance list (compress.CorrectionList).
	CounterSelectListCorrections
	// CounterSelectSweepFallbacks counts the steps that had no such list
	// and paid an exact selection over the whole gradient
	// (compress.CorrectionSweep).
	CounterSelectSweepFallbacks
	// CounterApplyElems counts the gradient elements a trainer's optimizer
	// update was handed (Node = the trainer's first worker), step by step:
	// the merged sparse mean's non-zeros, at most Workers*k-hat, when the
	// step stayed sparse after the selection, the model dimension d when it
	// applied a dense aggregate, whole or a ring's chunks one by one.
	CounterApplyElems
	// CounterRecoveries counts a cluster node's agreed membership
	// renegotiations (Node = the node): one per step failure it survived
	// by shrinking the group.
	CounterRecoveries
	// CounterPeersLost counts the members those renegotiations dropped
	// from the node's group (Node = the node).
	CounterPeersLost

	numCounterKinds
)

// scope is how a counter kind is attributed and which /metrics families
// carry it beside its total.
type scope uint8

const (
	// nodeScope kinds belong to Node and are exported per node.
	nodeScope scope = iota
	// linkScope kinds belong to the directed link (Node, Peer) and are
	// exported as a total only.
	linkScope
	// sentScope and recvScope are the gradient traffic of a directed
	// link, exported per link once that direction carried a message.
	sentScope
	recvScope
)

// counterRow describes one counter kind. name is the JSONL value and,
// as sidco_<name>_total, the Prometheus family (a _nanos name is
// exported in seconds); help is the family's help text.
type counterRow struct {
	name  string
	scope scope
	help  string
}

// counterRows is the one description of every counter kind: the names,
// the Aggregator's attribution and the /metrics families all read it.
var counterRows = [numCounterKinds]counterRow{
	CounterSentMessages:          {"sent_messages", sentScope, "Gradient messages sent"},
	CounterSentBytes:             {"sent_bytes", sentScope, "Gradient payload bytes sent"},
	CounterRecvMessages:          {"recv_messages", recvScope, "Gradient messages received"},
	CounterRecvBytes:             {"recv_bytes", recvScope, "Gradient payload bytes received"},
	CounterSteps:                 {"steps", nodeScope, "Completed training steps"},
	CounterRecvWaitNanos:         {"recv_wait_nanos", nodeScope, "Wall-clock time blocked in Recv (straggler + network wait)"},
	CounterDialRetries:           {"dial_retries", linkScope, "Retried TCP dial attempts"},
	CounterWireSentBytes:         {"wire_sent_bytes", linkScope, "Raw TCP bytes written (payload + framing + handshake)"},
	CounterWireRecvBytes:         {"wire_recv_bytes", linkScope, "Raw TCP bytes read (payload + framing + handshake)"},
	CounterSelectedElems:         {"selected_elems", nodeScope, "Elements the compressors shipped (k-hat; over target_elems, the achieved-vs-target ratio k-hat/k)"},
	CounterTargetElems:           {"target_elems", nodeScope, "Elements the compressors were asked for (k per worker per step)"},
	CounterSelectListCorrections: {"select_list_corrections", nodeScope, "Steps whose threshold estimate missed the band and was re-taken exactly from an exceedance list"},
	CounterSelectSweepFallbacks:  {"select_sweep_fallbacks", nodeScope, "Steps that had no exceedance list and paid an exact selection over the whole gradient"},
	CounterApplyElems:            {"apply_elems", nodeScope, "Gradient elements the optimizer updates were handed (the merged sparse mean's non-zeros on a sparse step, the model dimension on a dense one)"},
	CounterRecoveries:            {"recoveries", nodeScope, "Agreed membership renegotiations after a failed step (fault path)"},
	CounterPeersLost:             {"peers_lost", nodeScope, "Members the agreed renegotiations dropped from the group"},
}

// String implements fmt.Stringer: the kind's counterRows name.
func (k CounterKind) String() string {
	if k >= numCounterKinds {
		return "unknown"
	}
	return counterRows[k].name
}

// EventType discriminates the event shapes.
type EventType uint8

const (
	// EventSpan is a completed span with a duration.
	EventSpan EventType = iota
	// EventCounter is a counter delta.
	EventCounter
	// EventVirtual is a completed window on cluster.Instrumented's
	// virtual alpha-beta clock: a send or receive occupying a NIC, a
	// compute or compress charge. Virtual times are float64 nanoseconds
	// since the virtual origin (exact dyadic arithmetic survives the
	// round-trip), carried in VStartNanos/VEndNanos; WallNanos still
	// records when the event was emitted. Trace assembly (traceview)
	// consumes these; the Aggregator ignores them.
	EventVirtual
)

// Event is one telemetry record. It is a plain value — sinks receive it
// by value and must not assume any backing storage.
type Event struct {
	// WallNanos is the event's wall-clock time (Unix nanoseconds),
	// derived from one monotonic reading so durations never go
	// backwards under clock adjustments.
	WallNanos int64
	// Type selects which of the remaining fields are meaningful.
	Type EventType
	// Span is the phase of an EventSpan.
	Span SpanKind
	// Counter is the counter of an EventCounter.
	Counter CounterKind
	// Node is the owning worker/node id (-1 when not attributed).
	Node int32
	// Peer is the link peer for link-attributed events, else -1.
	Peer int32
	// Step is the training iteration of step-scoped spans, else -1.
	Step int64
	// DurNanos is an EventSpan's monotonic duration.
	DurNanos int64
	// Value is an EventCounter's delta, an EventVirtual message's
	// payload bytes, or an EventSpan's kind-specific tag
	// (Span.WithValue; SpanEncode spans carry the wire encoding
	// format code).
	Value int64
	// Seq is the per-directed-link monotone sequence number of message
	// events (counters emitted through CountSeq and virtual send/recv
	// windows), -1 when the event is not a link message. Links are FIFO
	// in every transport of this repo, so (from, to, seq) pairs a send
	// with exactly one recv — the causal edge trace assembly needs.
	Seq int64
	// VStartNanos/VEndNanos bound an EventVirtual's busy window on the
	// virtual clock, in float64 nanoseconds since the virtual origin.
	// Both bounds are carried explicitly (not end+duration): the
	// producer converts exact virtual seconds to nanos with one
	// rounding each, so two events whose true times coincide stay
	// bitwise equal — the property trace assembly's exact causal
	// binding relies on.
	VStartNanos float64
	VEndNanos   float64
}

// Sink consumes events. Sinks must be safe for concurrent use: a
// Tracer fans events out from whichever goroutine produced them
// (worker goroutines, transport reader goroutines) without a global
// lock. The built-in sinks (Aggregator, JSONL) lock internally.
type Sink interface {
	Emit(Event)
}

// base anchors all monotonic readings: timestamps are base's wall time
// plus a monotonic offset, so durations are immune to wall-clock steps.
var base = time.Now() //sidco:nondet telemetry clock origin, timestamps never feed training math
var baseWall = base.UnixNano()

// Monotonic returns nanoseconds since an arbitrary fixed origin,
// strictly non-decreasing. Exposed so instrumentation outside this
// package (the transports' receive-wait accounting) can measure
// durations on the same clock spans use.
func Monotonic() int64 { return int64(time.Since(base)) } //sidco:nondet telemetry timestamps never feed training math

// Tracer fans events out to its sinks. The zero of *Tracer — nil — is
// the disabled tracer: every method is a no-op and allocation-free, so
// call sites never need an enabled check of their own.
type Tracer struct {
	sinks []Sink
}

// New builds a tracer over the given sinks. No sinks means every event
// is dropped (still a valid, enabled tracer; use nil for disabled).
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is an in-flight traced phase. It is a value type: Begin/End
// pairs allocate nothing, and the zero Span (from a disabled tracer)
// is safe to End.
type Span struct {
	t     *Tracer
	start int64
	step  int64
	value int64
	kind  SpanKind
	node  int32
	peer  int32
}

// WithValue attaches a span-kind-specific tag carried in the emitted
// Event's Value field: SpanEncode spans tag the wire encoding format
// code, so traces attribute encode time per format. Chainable on the
// Begin result and free on the zero Span (the value is simply dropped).
//
//sidco:hotpath
func (s Span) WithValue(v int64) Span {
	s.value = v
	return s
}

// Begin starts a span of the given kind. node and peer may be -1 when
// the dimension does not apply; step is the training iteration or -1.
// On a nil tracer it returns the zero Span.
//
//sidco:hotpath
func (t *Tracer) Begin(kind SpanKind, node, peer int, step int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:     t,
		start: Monotonic(),
		step:  step,
		kind:  kind,
		node:  int32(node),
		peer:  int32(peer),
	}
}

// End completes the span and emits it. Safe on the zero Span.
//
//sidco:hotpath
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := Monotonic()
	s.t.emit(Event{
		WallNanos: baseWall + end,
		Type:      EventSpan,
		Span:      s.kind,
		Node:      s.node,
		Peer:      s.peer,
		Step:      s.step,
		DurNanos:  end - s.start,
		Value:     s.value,
		Seq:       -1,
	})
}

// Count emits a counter delta. Link-attributed counters pass the
// directed link as (node, peer); node-attributed counters pass peer=-1.
// Zero deltas are dropped. No-op on a nil tracer.
//
//sidco:hotpath
func (t *Tracer) Count(kind CounterKind, node, peer int, delta int64) {
	t.CountSeq(kind, node, peer, delta, -1, -1)
}

// CountSeq is Count for per-message link counters: seq is the message's
// per-directed-link monotone sequence number and step the training
// iteration the message belongs to (-1 when unknown). Kinds that are
// not per-message pass through Count with seq = step = -1.
//
//sidco:hotpath
func (t *Tracer) CountSeq(kind CounterKind, node, peer int, delta, seq, step int64) {
	if t == nil || delta == 0 {
		return
	}
	t.emit(Event{
		WallNanos: baseWall + Monotonic(),
		Type:      EventCounter,
		Counter:   kind,
		Node:      int32(node),
		Peer:      int32(peer),
		Step:      step,
		Value:     delta,
		Seq:       seq,
	})
}

// Virtual emits a completed window on the virtual alpha-beta clock.
// kind is SpanSend/SpanRecv for message NIC windows (node/peer the
// directed link owner-first: the sender for sends, the receiver for
// recvs; seq the link sequence; value the payload bytes) or SpanCompute
// for charged work (peer = -1, seq = -1).
// startNanos/endNanos are float64 virtual nanoseconds. No-op on a nil
// tracer.
//
//sidco:hotpath
func (t *Tracer) Virtual(kind SpanKind, node, peer int, step, seq, value int64, startNanos, endNanos float64) {
	if t == nil {
		return
	}
	t.emit(Event{
		WallNanos:   baseWall + Monotonic(),
		Type:        EventVirtual,
		Span:        kind,
		Node:        int32(node),
		Peer:        int32(peer),
		Step:        step,
		Value:       value,
		Seq:         seq,
		VStartNanos: startNanos,
		VEndNanos:   endNanos,
	})
}

//sidco:hotpath
func (t *Tracer) emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}
