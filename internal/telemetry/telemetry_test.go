package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	s := tr.Begin(SpanStep, 0, -1, 3)
	s.End()
	tr.Count(CounterSentBytes, 0, 1, 64)
	if !New().Enabled() {
		t.Error("sink-less tracer should still report enabled")
	}
}

func TestAggregatorCounterTotalsAreExact(t *testing.T) {
	agg := NewAggregator()
	tr := New(agg)
	for i := 0; i < 100; i++ {
		tr.Count(CounterSentMessages, 0, 1, 1)
		tr.Count(CounterSentBytes, 0, 1, int64(i))
		tr.Count(CounterRecvMessages, 0, 1, 1)
		tr.Count(CounterRecvBytes, 0, 1, int64(2*i))
	}
	tr.Count(CounterSentMessages, 1, 2, 5)
	tr.Count(CounterSteps, 0, -1, 7)
	tr.Count(CounterRecvWaitNanos, 2, 0, 1_500_000_000)
	for i := 0; i < 10; i++ {
		tr.Count(CounterSelectedElems, 3, -1, int64(95+i))
		tr.Count(CounterTargetElems, 3, -1, 100)
	}
	tr.Count(CounterSelectListCorrections, 3, -1, 1)
	tr.Count(CounterSelectSweepFallbacks, 4, -1, 1)
	tr.Count(CounterApplyElems, 3, -1, 380)
	tr.Count(CounterApplyElems, 3, -1, 10000)
	tr.Count(CounterRecoveries, 5, -1, 1)
	tr.Count(CounterPeersLost, 5, -1, 2)
	// A zero delta must be dropped, not recorded as a touched link.
	tr.Count(CounterSentBytes, 8, 9, 0)

	totals, links, nodes := agg.Snapshot()
	if got := totals[CounterSentMessages]; got != 105 {
		t.Errorf("sent messages = %d, want 105", got)
	}
	if got := totals[CounterSentBytes]; got != 4950 {
		t.Errorf("sent bytes = %d, want 4950", got)
	}
	if got := totals[CounterRecvBytes]; got != 9900 {
		t.Errorf("recv bytes = %d, want 9900", got)
	}
	lc := links[Link{0, 1}]
	if lc[CounterSentMessages] != 100 || lc[CounterSentBytes] != 4950 || lc[CounterRecvMessages] != 100 || lc[CounterRecvBytes] != 9900 {
		t.Errorf("link 0->1 = %v", lc)
	}
	if got := links[Link{1, 2}][CounterSentMessages]; got != 5 {
		t.Errorf("link 1->2 sent messages = %d, want 5", got)
	}
	if nc := nodes[0]; nc[CounterSteps] != 7 {
		t.Errorf("node 0 steps = %d, want 7", nc[CounterSteps])
	}
	if nc := nodes[2]; nc[CounterRecvWaitNanos] != 1_500_000_000 {
		t.Errorf("node 2 recv wait = %d", nc[CounterRecvWaitNanos])
	}
	if nc := nodes[3]; nc[CounterSelectedElems] != 995 || nc[CounterTargetElems] != 1000 || nc[CounterSelectListCorrections] != 1 || nc[CounterSelectSweepFallbacks] != 0 {
		t.Errorf("node 3 selection counters = %v", nc)
	}
	if nc := nodes[3]; nc[CounterApplyElems] != 10380 || totals[CounterApplyElems] != 10380 {
		t.Errorf("node 3 apply elems = %v", nc)
	}
	if nc := nodes[4]; nc[CounterSelectSweepFallbacks] != 1 || totals[CounterSelectSweepFallbacks] != 1 {
		t.Errorf("node 4 selection counters = %v", nc)
	}
	if nc := nodes[5]; nc[CounterRecoveries] != 1 || nc[CounterPeersLost] != 2 || totals[CounterPeersLost] != 2 {
		t.Errorf("node 5 fault-path counters = %v", nc)
	}
	// Node-attributed counters touch no link, so only the two traffic links
	// exist; TestPrometheusGolden pins their order.
	if _, ok := links[Link{8, 9}]; len(links) != 2 || ok {
		t.Errorf("links = %v (want 0->1, 1->2)", links)
	}
	agg.Reset()
	if totals, links, _ := agg.Snapshot(); totals[CounterSentMessages] != 0 || len(links) != 0 {
		t.Error("Reset left state behind")
	}
}

// TestAggregatorSpanPercentiles feeds a known duration distribution and
// pins the nearest-rank percentiles.
func TestAggregatorSpanPercentiles(t *testing.T) {
	agg := NewAggregator()
	for i := int64(1); i <= 100; i++ {
		agg.Emit(Event{Type: EventSpan, Span: SpanExchange, DurNanos: i})
	}
	spans := agg.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d span summaries, want 1", len(spans))
	}
	s := spans[0]
	if s.Kind != SpanExchange || s.Count != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Sum != 5050*time.Nanosecond {
		t.Errorf("sum = %v, want 5050ns", s.Sum)
	}
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 || s.Max != 100 {
		t.Errorf("p50/p90/p99/max = %v/%v/%v/%v, want 50/90/99/100 ns", s.P50, s.P90, s.P99, s.Max)
	}
}

// TestAggregatorRingIsBounded overflows the sample ring: counts and sums
// stay exact over every event while percentiles cover the newest window.
func TestAggregatorRingIsBounded(t *testing.T) {
	agg := NewAggregator()
	n := int64(3 * ringCap)
	var sum int64
	for i := int64(1); i <= n; i++ {
		agg.Emit(Event{Type: EventSpan, Span: SpanStep, DurNanos: i})
		sum += i
	}
	s := agg.Spans()[0]
	if s.Count != n || s.Sum != time.Duration(sum) || s.Max != time.Duration(n) {
		t.Errorf("count/sum/max = %d/%v/%v, want exact over all %d events", s.Count, s.Sum, s.Max, n)
	}
	// The ring holds the last ringCap values: 2*ringCap+1 .. 3*ringCap.
	if s.P50 < time.Duration(2*ringCap) {
		t.Errorf("p50 = %v predates the retained window", s.P50)
	}
}

func TestSpanEmitsDuration(t *testing.T) {
	agg := NewAggregator()
	tr := New(agg)
	sp := tr.Begin(SpanCompress, 3, -1, 9)
	time.Sleep(time.Millisecond)
	sp.End()
	s := agg.Spans()
	if len(s) != 1 || s[0].Kind != SpanCompress || s[0].Count != 1 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].Sum < time.Millisecond {
		t.Errorf("duration %v did not cover the sleep", s[0].Sum)
	}
}

// TestPrometheusRoundTrip renders an aggregate and parses it back:
// integer counters must survive exactly, durations in seconds.
func TestPrometheusRoundTrip(t *testing.T) {
	agg := NewAggregator()
	tr := New(agg)
	tr.Count(CounterSentMessages, 0, 1, 3)
	tr.Count(CounterSentBytes, 0, 1, 1<<40+7) // big enough to catch float rendering
	tr.Count(CounterRecvMessages, 1, 0, 2)
	tr.Count(CounterRecvBytes, 1, 0, 512)
	tr.Count(CounterSteps, 0, -1, 4)
	tr.Count(CounterRecvWaitNanos, 0, 1, 2_500_000_000)
	tr.Count(CounterWireSentBytes, 0, 1, 99)
	tr.Count(CounterSelectedElems, 1, -1, 2050)
	tr.Count(CounterTargetElems, 1, -1, 2097)
	tr.Count(CounterSelectListCorrections, 1, -1, 2)
	tr.Count(CounterSelectSweepFallbacks, 0, -1, 1)
	tr.Count(CounterApplyElems, 1, -1, 8200)
	tr.Count(CounterRecoveries, 2, -1, 1)
	tr.Count(CounterPeersLost, 2, -1, 1)
	agg.Emit(Event{Type: EventSpan, Span: SpanStep, DurNanos: 1_000_000})

	var buf bytes.Buffer
	if err := agg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseProm(buf.String())
	if err != nil {
		t.Fatalf("rendered metrics do not parse: %v\n%s", err, buf.String())
	}
	want := map[string]float64{
		"sidco_sent_messages_total":                          3,
		"sidco_sent_bytes_total":                             1<<40 + 7,
		"sidco_recv_messages_total":                          2,
		"sidco_recv_bytes_total":                             512,
		"sidco_steps_total":                                  4,
		"sidco_wire_sent_bytes_total":                        99,
		"sidco_recv_wait_seconds_total":                      2.5,
		`sidco_link_sent_messages_total{from="0",to="1"}`:    3,
		`sidco_link_sent_bytes_total{from="0",to="1"}`:       1<<40 + 7,
		`sidco_link_recv_bytes_total{from="1",to="0"}`:       512,
		`sidco_node_steps_total{node="0"}`:                   4,
		"sidco_selected_elems_total":                         2050,
		"sidco_target_elems_total":                           2097,
		"sidco_select_list_corrections_total":                2,
		"sidco_select_sweep_fallbacks_total":                 1,
		`sidco_node_selected_elems_total{node="1"}`:          2050,
		`sidco_node_target_elems_total{node="1"}`:            2097,
		`sidco_node_select_list_corrections_total{node="1"}`: 2,
		`sidco_node_select_sweep_fallbacks_total{node="0"}`:  1,
		"sidco_apply_elems_total":                            8200,
		`sidco_node_apply_elems_total{node="1"}`:             8200,
		"sidco_recoveries_total":                             1,
		"sidco_peers_lost_total":                             1,
		`sidco_node_recoveries_total{node="2"}`:              1,
		`sidco_node_peers_lost_total{node="2"}`:              1,
		`sidco_span_duration_seconds_count{span="step"}`:     1,
		`sidco_span_duration_seconds_sum{span="step"}`:       0.001,
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := ParseProm("metric_without_value"); err == nil {
		t.Error("valueless line should error")
	}
	if _, err := ParseProm("metric not_a_number"); err == nil {
		t.Error("non-numeric value should error")
	}
	m, err := ParseProm("# comment\n\nm 1\n")
	if err != nil || m["m"] != 1 {
		t.Errorf("m = %v, err %v", m, err)
	}
}

// TestJSONLSchema asserts every emitted line is valid JSON matching the
// documented v2 schema: a leading meta record, then strictly-decodable
// span/counter/virtual lines — parsed back through DecodeJSONL, the
// consumer's view, which rejects unknown fields and kinds.
func TestJSONLSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLForNode(&buf, 2)
	tr := New(j)
	sp := tr.Begin(SpanEncode, 2, -1, 11)
	sp.End()
	tr.CountSeq(CounterSentBytes, 0, 3, 4096, 12, 11)
	tr.Virtual(SpanSend, 0, 3, 11, 12, 4096, 976.5625, 1953.125)
	nodeKinds := []CounterKind{CounterSelectedElems, CounterTargetElems, CounterSelectListCorrections, CounterSelectSweepFallbacks, CounterApplyElems, CounterRecoveries, CounterPeersLost}
	for i, kind := range nodeKinds {
		tr.Count(kind, 2, -1, int64(100+i))
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("got %d lines, want meta+span+counter+virtual+7 node-attributed counters:\n%s", len(lines), buf.String())
	}
	meta, evs, err := DecodeJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if meta.Schema != SchemaVersion || meta.Node != 2 || meta.GOOS == "" || meta.GOARCH == "" ||
		meta.GoVersion == "" || meta.EpochNanos == 0 {
		t.Errorf("meta = %+v", meta)
	}
	if len(evs) != 10 {
		t.Fatalf("decoded %d events, want 10", len(evs))
	}
	for i, kind := range nodeKinds {
		if e := evs[3+i]; e.Type != EventCounter || e.Counter != kind || e.Node != 2 || e.Peer != -1 || e.Value != int64(100+i) || e.Seq != -1 {
			t.Errorf("%v counter event = %+v", kind, e)
		}
	}
	span, counter, virt := evs[0], evs[1], evs[2]
	if span.Type != EventSpan || span.Span != SpanEncode || span.Node != 2 || span.Peer != -1 ||
		span.Step != 11 || span.DurNanos < 0 || span.WallNanos == 0 || span.Seq != -1 {
		t.Errorf("span event = %+v", span)
	}
	if counter.Type != EventCounter || counter.Counter != CounterSentBytes || counter.Node != 0 ||
		counter.Peer != 3 || counter.Value != 4096 || counter.Seq != 12 || counter.Step != 11 {
		t.Errorf("counter event = %+v", counter)
	}
	// The virtual window's float64 nanoseconds must round-trip exactly:
	// dyadic virtual clocks stay bit-identical through the stream.
	if virt.Type != EventVirtual || virt.Span != SpanSend || virt.Node != 0 || virt.Peer != 3 ||
		virt.Seq != 12 || virt.Step != 11 || virt.Value != 4096 ||
		virt.VStartNanos != 976.5625 || virt.VEndNanos != 1953.125 {
		t.Errorf("virtual event = %+v", virt)
	}
}

// TestJSONLKindNames pins every span and counter kind's schema-3 name
// and sends each kind through JSONL and back through DecodeJSONL.
func TestJSONLKindNames(t *testing.T) {
	spans := []string{
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
	counters := []string{
		CounterSentMessages:          "sent_messages",
		CounterSentBytes:             "sent_bytes",
		CounterRecvMessages:          "recv_messages",
		CounterRecvBytes:             "recv_bytes",
		CounterSteps:                 "steps",
		CounterRecvWaitNanos:         "recv_wait_nanos",
		CounterDialRetries:           "dial_retries",
		CounterWireSentBytes:         "wire_sent_bytes",
		CounterWireRecvBytes:         "wire_recv_bytes",
		CounterSelectedElems:         "selected_elems",
		CounterTargetElems:           "target_elems",
		CounterSelectListCorrections: "select_list_corrections",
		CounterSelectSweepFallbacks:  "select_sweep_fallbacks",
		CounterApplyElems:            "apply_elems",
		CounterRecoveries:            "recoveries",
		CounterPeersLost:             "peers_lost",
	}
	if len(spans) != int(numSpanKinds) || len(counters) != int(numCounterKinds) {
		t.Fatalf("table lists %d span and %d counter kinds, the package has %d and %d",
			len(spans), len(counters), numSpanKinds, numCounterKinds)
	}
	for _, names := range [][]string{spans, counters} {
		seen := map[string]bool{}
		for _, name := range names {
			if name == "" || name == "unknown" || seen[name] {
				t.Errorf("kind name %q is empty, unknown or repeated", name)
			}
			seen[name] = true
		}
	}
	for k, r := range counterRows {
		if r.help == "" {
			t.Errorf("counter kind %d (%q) has no help text", k, r.name)
		}
	}
	if numSpanKinds.String() != "unknown" || numCounterKinds.String() != "unknown" {
		t.Errorf("out-of-range kinds print %q and %q, want unknown", numSpanKinds, numCounterKinds)
	}

	var buf bytes.Buffer
	j := NewJSONLForNode(&buf, 0)
	tr := New(j)
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.String() != spans[k] {
			t.Errorf("SpanKind %d prints %q, want %q", k, k, spans[k])
		}
		j.Emit(Event{Type: EventSpan, Span: k, Node: 0, Peer: -1, Step: int64(k), DurNanos: 1, Seq: -1})
	}
	for k := CounterKind(0); k < numCounterKinds; k++ {
		if k.String() != counters[k] {
			t.Errorf("CounterKind %d prints %q, want %q", k, k, counters[k])
		}
		tr.Count(k, 0, 1, int64(k)+1)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range spans {
		if !strings.Contains(buf.String(), `"span":"`+name+`"`) {
			t.Errorf("stream has no span line named %q", name)
		}
	}
	for _, name := range counters {
		if !strings.Contains(buf.String(), `"counter":"`+name+`"`) {
			t.Errorf("stream has no counter line named %q", name)
		}
	}
	_, evs, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(spans)+len(counters) {
		t.Fatalf("decoded %d events, want %d", len(evs), len(spans)+len(counters))
	}
	for k := range spans {
		if e := evs[k]; e.Type != EventSpan || e.Span != SpanKind(k) {
			t.Errorf("span %q decoded as %+v", spans[k], e)
		}
	}
	for k := range counters {
		if e := evs[len(spans)+k]; e.Type != EventCounter || e.Counter != CounterKind(k) || e.Value != int64(k)+1 {
			t.Errorf("counter %q decoded as %+v", counters[k], e)
		}
	}
}

// TestDecodeJSONLRejects pins the strict-decode failure modes: streams
// without a meta record, unknown schema versions, unknown line types,
// unknown kinds, and unknown fields must all error rather than decode
// loosely.
func TestDecodeJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"empty stream":     "",
		"no meta record":   `{"ts":1,"type":"counter","counter":"sent_bytes","node":0,"peer":1,"step":-1,"seq":-1,"value":1}` + "\n",
		"v2 stream":        `{"type":"meta","schema":2,"node":0,"goos":"linux","goarch":"amd64","go":"go1.24","epoch_ns":1}` + "\n",
		"unknown schema":   `{"type":"meta","schema":99,"node":0,"goos":"linux","goarch":"amd64","go":"go1.24","epoch_ns":1}` + "\n",
		"duplicate meta":   validMeta + validMeta,
		"unknown type":     validMeta + `{"ts":1,"type":"gauge","node":0,"peer":-1}` + "\n",
		"unknown counter":  validMeta + `{"ts":1,"type":"counter","counter":"bogus","node":0,"peer":1,"step":-1,"seq":-1,"value":1}` + "\n",
		"unknown span":     validMeta + `{"ts":1,"type":"span","span":"bogus","node":0,"peer":-1,"step":-1,"dur_ns":1}` + "\n",
		"v2 chunk field":   validMeta + `{"ts":1,"type":"span","span":"step","node":0,"peer":-1,"chunk":-1,"step":-1,"dur_ns":1}` + "\n",
		"unknown field":    validMeta + `{"ts":1,"type":"counter","counter":"sent_bytes","node":0,"peer":1,"step":-1,"seq":-1,"value":1,"extra":true}` + "\n",
		"meta extra field": `{"type":"meta","schema":3,"node":0,"goos":"linux","goarch":"amd64","go":"go1.24","epoch_ns":1,"extra":1}` + "\n",
	}
	for name, stream := range cases {
		if _, _, err := DecodeJSONL(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, _, err := DecodeJSONL(strings.NewReader(validMeta)); err != nil {
		t.Errorf("meta-only stream should decode: %v", err)
	}
}

const validMeta = `{"type":"meta","schema":3,"node":0,"goos":"linux","goarch":"amd64","go":"go1.24","epoch_ns":1}` + "\n"

// TestAggregatorDroppedSamplesCounter pins the satellite: once the span
// ring overflows, the overwritten sample count is exact, surfaces in
// SpanSummary.Dropped and renders as
// sidco_span_samples_dropped_total{span=...} so truncated percentiles
// are visible to a scrape.
func TestAggregatorDroppedSamplesCounter(t *testing.T) {
	agg := NewAggregator()
	const extra = 37
	for i := 0; i < ringCap+extra; i++ {
		agg.Emit(Event{Type: EventSpan, Span: SpanStep, DurNanos: 1})
	}
	agg.Emit(Event{Type: EventSpan, Span: SpanApply, DurNanos: 1}) // under the ring bound
	var step, apply SpanSummary
	for _, s := range agg.Spans() {
		switch s.Kind {
		case SpanStep:
			step = s
		case SpanApply:
			apply = s
		}
	}
	if step.Dropped != extra {
		t.Errorf("step dropped = %d, want %d", step.Dropped, extra)
	}
	if apply.Dropped != 0 {
		t.Errorf("apply dropped = %d, want 0", apply.Dropped)
	}
	var buf bytes.Buffer
	if err := agg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseProm(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`sidco_span_samples_dropped_total{span="step"}`]; got != extra {
		t.Errorf(`sidco_span_samples_dropped_total{span="step"} = %v, want %d`, got, extra)
	}
	if got, ok := m[`sidco_span_samples_dropped_total{span="apply"}`]; !ok || got != 0 {
		t.Errorf(`sidco_span_samples_dropped_total{span="apply"} = %v (present %v), want 0`, got, ok)
	}
}

// errWriter fails after n writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONLForNode(&errWriter{n: 0}, -1)
	tr := New(j)
	for i := 0; i < 2000; i++ { // enough to overflow the bufio buffer
		tr.Count(CounterSentBytes, 0, 1, 1)
	}
	if err := j.Flush(); err == nil {
		t.Error("write failure should surface from Flush")
	}
}

// TestConcurrentEmit hammers one tracer from many goroutines into both
// built-in sinks; totals must come out exact. Run under -race in CI,
// this is the concurrency contract's regression test.
func TestConcurrentEmit(t *testing.T) {
	agg := NewAggregator()
	j := NewJSONLForNode(io.Discard, -1)
	tr := New(agg, j)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Begin(SpanCollective, g, -1, int64(i))
				tr.Count(CounterSentMessages, g, (g+1)%goroutines, 1)
				tr.Count(CounterSentBytes, g, (g+1)%goroutines, 8)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	totals, links, _ := agg.Snapshot()
	if got := totals[CounterSentMessages]; got != goroutines*per {
		t.Errorf("sent messages = %d, want %d", got, goroutines*per)
	}
	if got := totals[CounterSentBytes]; got != goroutines*per*8 {
		t.Errorf("sent bytes = %d, want %d", got, goroutines*per*8)
	}
	spans := agg.Spans()
	if len(spans) != 1 || spans[0].Count != goroutines*per {
		t.Errorf("spans = %+v, want %d collective spans", spans, goroutines*per)
	}
	for g := 0; g < goroutines; g++ {
		if lc := links[Link{int32(g), int32((g + 1) % goroutines)}]; lc[CounterSentMessages] != per {
			t.Errorf("link %d->%d = %d messages, want %d", g, (g+1)%goroutines, lc[CounterSentMessages], per)
		}
	}
}

func TestMonotonicNeverDecreases(t *testing.T) {
	prev := Monotonic()
	for i := 0; i < 1000; i++ {
		now := Monotonic()
		if now < prev {
			t.Fatalf("monotonic clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}
