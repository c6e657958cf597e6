package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Link names a directed transport link.
type Link struct{ From, To int }

// LinkStats is the measured traffic of one directed link.
type LinkStats struct {
	Messages int
	Bytes    int
}

// Scenario parameterises the virtual-time model of an Instrumented
// transport: alpha-beta link costs plus the workload-shaping knobs —
// per-link bandwidth overrides for heterogeneous fabrics and per-node
// straggler factors for slow machines. A nil Scenario disables time
// modelling (traffic is still counted).
type Scenario struct {
	// LatencySec is the per-message latency alpha.
	LatencySec float64
	// BandwidthBps is the default per-link bandwidth in bits/second.
	BandwidthBps float64
	// LinkBandwidthBps overrides the bandwidth of individual links,
	// modelling oversubscribed or degraded paths.
	LinkBandwidthBps map[Link]float64
	// StragglerFactor multiplies node compute time (Compute calls);
	// missing or zero entries mean the nominal factor 1.
	StragglerFactor map[int]float64
}

// ScenarioFromNetwork lifts a netsim fabric into a homogeneous Scenario,
// so measured virtual time can be compared against the analytic model
// it mirrors.
func ScenarioFromNetwork(net netsim.Network) *Scenario {
	return &Scenario{LatencySec: net.LatencySec, BandwidthBps: net.BandwidthBps}
}

func (s *Scenario) bandwidth(from, to int) float64 {
	if bw, ok := s.LinkBandwidthBps[Link{from, to}]; ok && bw > 0 {
		return bw
	}
	return s.BandwidthBps
}

func (s *Scenario) transfer(from, to, bytes int) float64 {
	bw := s.bandwidth(from, to)
	if bw <= 0 {
		return 0
	}
	return float64(bytes) * 8 / bw
}

// Instrumented wraps any Transport with per-link traffic accounting and
// an optional discrete-event alpha-beta clock model. Counting is exact:
// total bytes equal the sum of payload lengths handed to Send, which for
// encoded gradients equals internal/encoding's size accounting.
//
// Sends and receives are counted separately, because the wrapped
// transport need not host every node: over a per-process TCPTransport
// (cmd/sidco-node) this wrapper only observes the local rank's traffic,
// so Totals is the process's outbound share of the collective and
// RecvTotals its inbound share. In a single-process deployment every
// message is both sent and received locally and the two mirror each
// other.
//
// The clock model charges each message alpha + bytes/bandwidth on both
// the sender's and the receiver's NIC: per-node NICs serialise their own
// transfers (so a parameter server's fan-in and fan-out serialise, as in
// netsim.ParameterServer) while distinct links run in parallel (so ring
// steps overlap, as in netsim.AllReduceDense). Stamps ride a per-link
// FIFO alongside the wrapped transport's own per-link FIFO; the schedules
// in this package have one sender and one receiver per link, which keeps
// the two queues aligned.
type Instrumented struct {
	inner Transport
	rel   releaser // inner's release capability, nil when it has none
	scen  *Scenario
	tel   *telemetry.Tracer
	step  atomic.Int64 // current training step for emitted message events, -1 outside steps

	mu         sync.Mutex
	stats      map[Link]*LinkStats // guarded by mu
	rstats     map[Link]*LinkStats // guarded by mu
	totalMsgs  int                 // guarded by mu
	totalBytes int                 // guarded by mu
	recvMsgs   int                 // guarded by mu
	recvBytes  int                 // guarded by mu
	clock      []float64           // guarded by mu (elements); per-node logical progress time
	txBusy     []float64           // guarded by mu (elements); per-node send-NIC busy-until
	rxBusy     []float64           // guarded by mu (elements); per-node receive-NIC busy-until
	stamps     map[Link][]float64  // guarded by mu
	sendSeq    map[Link]int64      // guarded by mu; next send sequence per directed link
	recvSeq    map[Link]int64      // guarded by mu; next recv sequence per directed link
}

// NewInstrumented wraps inner. scen may be nil to count traffic without
// modelling time.
func NewInstrumented(inner Transport, scen *Scenario) *Instrumented {
	n := inner.Nodes()
	t := &Instrumented{
		inner:   inner,
		rel:     releaserOf(inner),
		scen:    scen,
		stats:   make(map[Link]*LinkStats),
		rstats:  make(map[Link]*LinkStats),
		clock:   make([]float64, n),
		txBusy:  make([]float64, n),
		rxBusy:  make([]float64, n),
		stamps:  make(map[Link][]float64),
		sendSeq: make(map[Link]int64),
		recvSeq: make(map[Link]int64),
	}
	t.step.Store(-1)
	return t
}

// SetStep tags subsequently emitted telemetry message events with the
// given training step, so trace assembly can slice a stream per step.
// The schedules are synchronous — every in-flight message belongs to
// exactly one exchange — so a single transport-wide tag is race-free
// when set before the exchange fans out. Pass -1 to clear. The tag is
// forwarded to the wrapped transport when it wants one (FaultTransport
// triggers step-scheduled kills off it).
func (t *Instrumented) SetStep(step int64) {
	t.step.Store(step)
	if s, ok := t.inner.(interface{ SetStep(int64) }); ok {
		s.SetStep(step)
	}
}

// innerReleaser implements releaseForwarder: the wrapper lends receive
// frames exactly when the transport it wraps does.
func (t *Instrumented) innerReleaser() releaser { return t.rel }

// WithTelemetry attaches a tracer and returns the receiver: every Send
// emits sent-message/byte counter events and every Recv emits
// recv-message/byte counters plus the wall-clock nanoseconds the call
// spent blocked (CounterRecvWaitNanos — the straggler + network wait of
// a synchronous schedule). The events mirror this wrapper's own exact
// counters, at the same layer, so telemetry totals must equal Totals()
// and RecvTotals() — the cross-check the tests assert. A nil tracer
// (the default) costs nothing.
func (t *Instrumented) WithTelemetry(tel *telemetry.Tracer) *Instrumented {
	t.tel = tel
	return t
}

// Nodes implements Transport.
func (t *Instrumented) Nodes() int { return t.inner.Nodes() }

// Send implements Transport, recording the message before delivery.
func (t *Instrumented) Send(from, to int, payload []byte) error {
	t.mu.Lock()
	l := Link{from, to}
	st := t.stats[l]
	if st == nil {
		st = &LinkStats{}
		t.stats[l] = st
	}
	st.Messages++
	st.Bytes += len(payload)
	t.totalMsgs++
	t.totalBytes += len(payload)
	seq := t.sendSeq[l]
	t.sendSeq[l] = seq + 1
	var vStart, vEnd float64
	hasVirtual := false
	if t.scen != nil && from >= 0 && from < len(t.clock) {
		start := t.txBusy[from]
		if t.clock[from] > start {
			start = t.clock[from]
		}
		t.txBusy[from] = start + t.scen.LatencySec + t.scen.transfer(from, to, len(payload))
		t.stamps[l] = append(t.stamps[l], start)
		vStart, vEnd, hasVirtual = start, t.txBusy[from], true
	}
	t.mu.Unlock()
	step := t.step.Load()
	t.tel.CountSeq(telemetry.CounterSentMessages, from, to, 1, seq, step)
	t.tel.CountSeq(telemetry.CounterSentBytes, from, to, int64(len(payload)), seq, step)
	if hasVirtual {
		t.tel.Virtual(telemetry.SpanSend, from, to, step, seq, int64(len(payload)),
			vStart*1e9, vEnd*1e9)
	}
	return t.inner.Send(from, to, payload)
}

// Recv implements Transport, advancing the receiver's clock once the
// payload arrives.
func (t *Instrumented) Recv(to, from int) ([]byte, error) {
	return t.recv(to, from, recvBlock)
}

// RecvTimeout implements Transport with identical accounting: a
// timed-out call delivers nothing and counts nothing.
func (t *Instrumented) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	return t.recv(to, from, max(timeout, 0))
}

// recv is the shared receive path; timeout < 0 blocks.
func (t *Instrumented) recv(to, from int, timeout time.Duration) ([]byte, error) {
	var t0 int64
	if t.tel.Enabled() {
		t0 = telemetry.Monotonic()
	}
	payload, err := recvOn(t.inner, to, from, timeout)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	l := Link{from, to}
	rst := t.rstats[l]
	if rst == nil {
		rst = &LinkStats{}
		t.rstats[l] = rst
	}
	rst.Messages++
	rst.Bytes += len(payload)
	t.recvMsgs++
	t.recvBytes += len(payload)
	seq := t.recvSeq[l]
	t.recvSeq[l] = seq + 1
	var vStart, vEnd float64
	hasVirtual := false
	if t.scen != nil {
		if q := t.stamps[l]; len(q) > 0 && to >= 0 && to < len(t.clock) {
			start := q[0]
			t.stamps[l] = q[1:]
			if t.rxBusy[to] > start {
				start = t.rxBusy[to]
			}
			t.rxBusy[to] = start + t.scen.LatencySec + t.scen.transfer(from, to, len(payload))
			if t.rxBusy[to] > t.clock[to] {
				t.clock[to] = t.rxBusy[to]
			}
			vStart, vEnd, hasVirtual = start, t.rxBusy[to], true
		}
	}
	t.mu.Unlock()
	if t.tel.Enabled() {
		step := t.step.Load()
		t.tel.CountSeq(telemetry.CounterRecvWaitNanos, to, from, telemetry.Monotonic()-t0, seq, step)
		t.tel.CountSeq(telemetry.CounterRecvMessages, from, to, 1, seq, step)
		t.tel.CountSeq(telemetry.CounterRecvBytes, from, to, int64(len(payload)), seq, step)
		if hasVirtual {
			t.tel.Virtual(telemetry.SpanRecv, to, from, step, seq, int64(len(payload)),
				vStart*1e9, vEnd*1e9)
		}
	}
	return payload, nil
}

// Close implements Transport.
func (t *Instrumented) Close() error { return t.inner.Close() }

// Compute charges seconds of local work to a node's clock, scaled by the
// scenario's straggler factor — the knob that makes one slow machine
// drag a synchronous step.
func (t *Instrumented) Compute(node int, seconds float64) {
	if t.scen == nil || node < 0 || node >= len(t.clock) { //sidco:nolock clock slice header is immutable after construction; only elements are guarded
		return
	}
	t.mu.Lock()
	start := t.clock[node]
	t.clock[node] = start + seconds*t.straggler(node)
	end := t.clock[node]
	t.mu.Unlock()
	t.tel.Virtual(telemetry.SpanCompute, node, -1, t.step.Load(), -1, 0,
		start*1e9, end*1e9)
}

// straggler returns the node's compute slowdown factor. Callers hold mu
// or read immutable scenario state.
func (t *Instrumented) straggler(node int) float64 {
	if f, ok := t.scen.StragglerFactor[node]; ok && f > 0 {
		return f
	}
	return 1
}

// LinkStats returns the sent traffic of one directed link.
//
//sidco:oracle per-link traffic the exact-traffic tests compare with netsim
func (t *Instrumented) LinkStats(from, to int) LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[Link{from, to}]; st != nil {
		return *st
	}
	return LinkStats{}
}

// RecvLinkStats returns the received traffic of one directed link —
// messages this wrapper's Recv actually delivered at node to.
//
//sidco:oracle per-link receipts the exact-traffic tests compare with sends
func (t *Instrumented) RecvLinkStats(from, to int) LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.rstats[Link{from, to}]; st != nil {
		return *st
	}
	return LinkStats{}
}

// Totals returns the sent message and byte counts summed over all links.
func (t *Instrumented) Totals() (messages, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalMsgs, t.totalBytes
}

// RecvTotals returns the received message and byte counts summed over
// all links — the inbound share of a per-process node's collective.
func (t *Instrumented) RecvTotals() (messages, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recvMsgs, t.recvBytes
}

// Elapsed returns the virtual time of the slowest node — the synchronous
// step's critical path. Zero without a Scenario.
func (t *Instrumented) Elapsed() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var max float64
	for _, c := range t.clock {
		if c > max {
			max = c
		}
	}
	return max
}

// Reset clears traffic counters and virtual clocks, typically between
// steps so per-step measurements stay independent.
//
//sidco:oracle lets the traffic tests measure one step in isolation
func (t *Instrumented) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = make(map[Link]*LinkStats)
	t.rstats = make(map[Link]*LinkStats)
	t.totalMsgs, t.totalBytes = 0, 0
	t.recvMsgs, t.recvBytes = 0, 0
	for i := range t.clock {
		t.clock[i], t.txBusy[i], t.rxBusy[i] = 0, 0, 0
	}
	t.stamps = make(map[Link][]float64)
	t.sendSeq = make(map[Link]int64)
	t.recvSeq = make(map[Link]int64)
}
