package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ringCap bounds the per-span-kind duration samples kept for percentile
// summaries: a fixed ring of the most recent samples, so a long run's
// memory stays bounded and the enabled hot path stays allocation-free
// after the ring's one-time allocation. Counts and sums cover every
// event regardless.
const ringCap = 4096

// spanStats accumulates one span kind.
type spanStats struct {
	count   int64
	sum     int64 // nanoseconds
	max     int64
	dropped int64   // samples overwritten in the ring (outside the percentile window)
	ring    []int64 // most recent ringCap durations
	pos     int
	full    bool
}

//sidco:hotpath
func (s *spanStats) add(durNS int64) {
	s.count++
	s.sum += durNS
	if durNS > s.max {
		s.max = durNS
	}
	if s.ring == nil {
		s.ring = make([]int64, 0, ringCap) //sidco:alloc one-time ring allocation on a span kind's first sample
	}
	if len(s.ring) < ringCap {
		s.ring = append(s.ring, durNS)
		return
	}
	s.full = true
	s.dropped++
	s.ring[s.pos] = durNS
	s.pos++
	if s.pos == ringCap {
		s.pos = 0
	}
}

// Link names a directed link in aggregated link counters.
type Link struct{ From, To int32 }

// LinkCounters is the aggregated traffic of one directed link.
type LinkCounters struct {
	SentMessages  int64
	SentBytes     int64
	RecvMessages  int64
	RecvBytes     int64
	WireSentBytes int64
	WireRecvBytes int64
	DialRetries   int64
}

// NodeCounters is the aggregated node-attributed counters of one node.
type NodeCounters struct {
	Steps         int64
	RecvWaitNanos int64
	// SelectedElems / TargetElems is the node's achieved-vs-target
	// compression ratio k-hat/k over the run.
	SelectedElems         int64
	TargetElems           int64
	SelectListCorrections int64
	SelectSweepFallbacks  int64
	// ApplyElems over Steps is the size of the aggregate the node's
	// optimizer applies per step: about Workers*k on the sparse route, d on
	// the dense one.
	ApplyElems int64
	// Recoveries counts the node's agreed membership renegotiations and
	// PeersLost the members they dropped from its group.
	Recoveries int64
	PeersLost  int64
}

// SpanSummary is one span kind's aggregate, with percentiles over the
// retained sample ring. Dropped counts the samples the bounded ring has
// overwritten: when it is non-zero the percentiles describe a recent
// window, not the whole run (Count, Sum and Max always cover
// everything).
type SpanSummary struct {
	Kind    SpanKind
	Count   int64
	Dropped int64
	Sum     time.Duration
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// Aggregator is the in-memory Sink: exact counter totals (per kind,
// per link, per node) and span duration summaries with percentiles.
// It is safe for concurrent use — WritePrometheus may run while events
// stream in, which is exactly what a live /metrics endpoint does.
type Aggregator struct {
	mu     sync.Mutex
	spans  [numSpanKinds]spanStats // guarded by mu
	totals [numCounterKinds]int64  // guarded by mu
	links  map[Link]*LinkCounters  // guarded by mu
	nodes  map[int32]*NodeCounters // guarded by mu
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		links: make(map[Link]*LinkCounters),
		nodes: make(map[int32]*NodeCounters),
	}
}

// Emit implements Sink.
//
//sidco:hotpath
func (a *Aggregator) Emit(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.Type == EventSpan {
		if e.Span < numSpanKinds {
			a.spans[e.Span].add(e.DurNanos)
		}
		return
	}
	if e.Type != EventCounter {
		// EventVirtual (and any future shape) carries no wall-clock
		// aggregate: virtual windows belong to trace assembly, not to
		// the live metrics surface.
		return
	}
	if e.Counter >= numCounterKinds {
		return
	}
	a.totals[e.Counter] += e.Value
	switch e.Counter {
	case CounterSentMessages, CounterSentBytes, CounterRecvMessages, CounterRecvBytes,
		CounterWireSentBytes, CounterWireRecvBytes, CounterDialRetries:
		lc := a.links[Link{e.Node, e.Peer}]
		if lc == nil {
			lc = &LinkCounters{} //sidco:alloc first sight of a link only; steady state hits the map
			a.links[Link{e.Node, e.Peer}] = lc
		}
		switch e.Counter {
		case CounterSentMessages:
			lc.SentMessages += e.Value
		case CounterSentBytes:
			lc.SentBytes += e.Value
		case CounterRecvMessages:
			lc.RecvMessages += e.Value
		case CounterRecvBytes:
			lc.RecvBytes += e.Value
		case CounterWireSentBytes:
			lc.WireSentBytes += e.Value
		case CounterWireRecvBytes:
			lc.WireRecvBytes += e.Value
		case CounterDialRetries:
			lc.DialRetries += e.Value
		}
	default:
		nc := a.nodes[e.Node]
		if nc == nil {
			nc = &NodeCounters{} //sidco:alloc first sight of a node only; steady state hits the map
			a.nodes[e.Node] = nc
		}
		switch e.Counter {
		case CounterSteps:
			nc.Steps += e.Value
		case CounterRecvWaitNanos:
			nc.RecvWaitNanos += e.Value
		case CounterSelectedElems:
			nc.SelectedElems += e.Value
		case CounterTargetElems:
			nc.TargetElems += e.Value
		case CounterSelectListCorrections:
			nc.SelectListCorrections += e.Value
		case CounterSelectSweepFallbacks:
			nc.SelectSweepFallbacks += e.Value
		case CounterApplyElems:
			nc.ApplyElems += e.Value
		case CounterRecoveries:
			nc.Recoveries += e.Value
		case CounterPeersLost:
			nc.PeersLost += e.Value
		}
	}
}

// Total returns the exact sum of one counter kind over all events.
//
//sidco:oracle the exact counter sums the telemetry tests check
func (a *Aggregator) Total(kind CounterKind) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if kind >= numCounterKinds {
		return 0
	}
	return a.totals[kind]
}

// LinkTotals returns one directed link's aggregated counters.
//
//sidco:oracle per-link counters the tests match against the transport
func (a *Aggregator) LinkTotals(from, to int) LinkCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	if lc := a.links[Link{int32(from), int32(to)}]; lc != nil {
		return *lc
	}
	return LinkCounters{}
}

// LinksSeen returns every directed link with recorded traffic, sorted
// by (from, to).
//
//sidco:oracle the link set the tests match against the collective
func (a *Aggregator) LinksSeen() []Link {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Link, 0, len(a.links))
	for l := range a.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// NodeTotals returns one node's node-attributed counters.
//
//sidco:oracle per-node counters the recovery and selection tests check
func (a *Aggregator) NodeTotals(node int) NodeCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	if nc := a.nodes[int32(node)]; nc != nil {
		return *nc
	}
	return NodeCounters{}
}

// quantile reads the q-th quantile (0..1) from a sorted sample slice
// using the nearest-rank method.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Spans returns a summary per span kind with at least one sample,
// in SpanKind order. Percentiles cover the retained ring (the most
// recent ringCap samples); Count, Sum and Max cover everything.
func (a *Aggregator) Spans() []SpanSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []SpanSummary
	scratch := make([]int64, 0, ringCap)
	for k := SpanKind(0); k < numSpanKinds; k++ {
		st := &a.spans[k]
		if st.count == 0 {
			continue
		}
		scratch = append(scratch[:0], st.ring...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		out = append(out, SpanSummary{
			Kind:    k,
			Count:   st.count,
			Dropped: st.dropped,
			Sum:     time.Duration(st.sum),
			P50:     time.Duration(quantile(scratch, 0.50)),
			P90:     time.Duration(quantile(scratch, 0.90)),
			P99:     time.Duration(quantile(scratch, 0.99)),
			Max:     time.Duration(st.max),
		})
	}
	return out
}

// Reset clears all aggregated state (between measured phases).
func (a *Aggregator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spans = [numSpanKinds]spanStats{}
	a.totals = [numCounterKinds]int64{}
	a.links = make(map[Link]*LinkCounters)
	a.nodes = make(map[int32]*NodeCounters)
}

// seconds renders nanoseconds as a decimal seconds literal.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders the aggregate in the Prometheus plaintext
// exposition format (version 0.0.4). Integer counters are rendered as
// exact integers, so a scrape — or ParseProm — recovers byte and
// message totals without loss; durations are rendered in seconds.
// Output order is deterministic (kinds in declaration order, links and
// nodes sorted).
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	a.mu.Lock()
	// Snapshot under the lock, render outside it.
	spans := [numSpanKinds]spanStats{}
	for k := range a.spans {
		st := a.spans[k]
		st.ring = append([]int64(nil), st.ring...)
		spans[k] = st
	}
	totals := a.totals
	links := make([]Link, 0, len(a.links))
	for l := range a.links {
		links = append(links, l)
	}
	linkVals := make(map[Link]LinkCounters, len(a.links))
	for l, lc := range a.links {
		linkVals[l] = *lc
	}
	nodes := make([]int32, 0, len(a.nodes))
	for n := range a.nodes {
		nodes = append(nodes, n)
	}
	nodeVals := make(map[int32]NodeCounters, len(a.nodes))
	for n, nc := range a.nodes {
		nodeVals[n] = *nc
	}
	a.mu.Unlock()

	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP sidco_span_duration_seconds Monotonic wall-clock span durations per phase.\n")
	fmt.Fprintf(bw, "# TYPE sidco_span_duration_seconds summary\n")
	scratch := make([]int64, 0, ringCap)
	for k := SpanKind(0); k < numSpanKinds; k++ {
		st := spans[k]
		if st.count == 0 {
			continue
		}
		scratch = append(scratch[:0], st.ring...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
			fmt.Fprintf(bw, "sidco_span_duration_seconds{span=%q,quantile=%q} %s\n",
				k.String(), q.label, seconds(quantile(scratch, q.q)))
		}
		fmt.Fprintf(bw, "sidco_span_duration_seconds_sum{span=%q} %s\n", k.String(), seconds(st.sum))
		fmt.Fprintf(bw, "sidco_span_duration_seconds_count{span=%q} %d\n", k.String(), st.count)
	}
	fmt.Fprintf(bw, "# HELP sidco_span_samples_dropped_total Span duration samples overwritten in the bounded percentile ring; non-zero means the quantiles above cover a recent window, not the whole run.\n")
	fmt.Fprintf(bw, "# TYPE sidco_span_samples_dropped_total counter\n")
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if spans[k].count == 0 {
			continue
		}
		fmt.Fprintf(bw, "sidco_span_samples_dropped_total{span=%q} %d\n", k.String(), spans[k].dropped)
	}

	writeTotal := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	writeTotal("sidco_sent_messages_total", "Gradient messages sent (all links).", totals[CounterSentMessages])
	writeTotal("sidco_sent_bytes_total", "Gradient payload bytes sent (all links).", totals[CounterSentBytes])
	writeTotal("sidco_recv_messages_total", "Gradient messages received (all links).", totals[CounterRecvMessages])
	writeTotal("sidco_recv_bytes_total", "Gradient payload bytes received (all links).", totals[CounterRecvBytes])
	writeTotal("sidco_steps_total", "Completed training steps.", totals[CounterSteps])
	writeTotal("sidco_dial_retries_total", "Retried TCP dial attempts.", totals[CounterDialRetries])
	writeTotal("sidco_wire_sent_bytes_total", "Raw TCP bytes written (payload + framing + handshake).", totals[CounterWireSentBytes])
	writeTotal("sidco_wire_recv_bytes_total", "Raw TCP bytes read (payload + framing + handshake).", totals[CounterWireRecvBytes])
	writeTotal("sidco_selected_elems_total", "Elements the compressors shipped; over sidco_target_elems_total it is the achieved-vs-target ratio k-hat/k.", totals[CounterSelectedElems])
	writeTotal("sidco_target_elems_total", "Elements the compressors were asked for (k per worker per step).", totals[CounterTargetElems])
	writeTotal("sidco_select_list_corrections_total", "Steps whose threshold estimate missed the band and was re-taken exactly from an exceedance list.", totals[CounterSelectListCorrections])
	writeTotal("sidco_select_sweep_fallbacks_total", "Steps that had no such list and paid an exact selection over the whole gradient.", totals[CounterSelectSweepFallbacks])
	writeTotal("sidco_apply_elems_total", "Gradient elements the optimizer updates were handed: the merged sparse mean's non-zeros on a sparse-applied step, the model dimension on a dense one.", totals[CounterApplyElems])
	writeTotal("sidco_recoveries_total", "Agreed membership renegotiations after a failed step (fault path).", totals[CounterRecoveries])
	writeTotal("sidco_peers_lost_total", "Members the agreed renegotiations dropped from the group.", totals[CounterPeersLost])
	fmt.Fprintf(bw, "# HELP sidco_recv_wait_seconds_total Wall-clock time blocked in Recv (straggler + network wait).\n")
	fmt.Fprintf(bw, "# TYPE sidco_recv_wait_seconds_total counter\n")
	fmt.Fprintf(bw, "sidco_recv_wait_seconds_total %s\n", seconds(totals[CounterRecvWaitNanos]))

	if len(links) > 0 {
		fmt.Fprintf(bw, "# HELP sidco_link_sent_bytes_total Gradient payload bytes sent per directed link.\n")
		fmt.Fprintf(bw, "# TYPE sidco_link_sent_bytes_total counter\n")
		for _, l := range links {
			lc := linkVals[l]
			if lc.SentMessages == 0 && lc.SentBytes == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_link_sent_bytes_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, lc.SentBytes)
		}
		fmt.Fprintf(bw, "# HELP sidco_link_sent_messages_total Gradient messages sent per directed link.\n")
		fmt.Fprintf(bw, "# TYPE sidco_link_sent_messages_total counter\n")
		for _, l := range links {
			lc := linkVals[l]
			if lc.SentMessages == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_link_sent_messages_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, lc.SentMessages)
		}
		fmt.Fprintf(bw, "# HELP sidco_link_recv_bytes_total Gradient payload bytes received per directed link.\n")
		fmt.Fprintf(bw, "# TYPE sidco_link_recv_bytes_total counter\n")
		for _, l := range links {
			lc := linkVals[l]
			if lc.RecvMessages == 0 && lc.RecvBytes == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_link_recv_bytes_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, lc.RecvBytes)
		}
		fmt.Fprintf(bw, "# HELP sidco_link_recv_messages_total Gradient messages received per directed link.\n")
		fmt.Fprintf(bw, "# TYPE sidco_link_recv_messages_total counter\n")
		for _, l := range links {
			lc := linkVals[l]
			if lc.RecvMessages == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_link_recv_messages_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, lc.RecvMessages)
		}
	}
	if len(nodes) > 0 {
		fmt.Fprintf(bw, "# HELP sidco_node_steps_total Completed training steps per node.\n")
		fmt.Fprintf(bw, "# TYPE sidco_node_steps_total counter\n")
		for _, n := range nodes {
			if nodeVals[n].Steps == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_node_steps_total{node=\"%d\"} %d\n", n, nodeVals[n].Steps)
		}
		fmt.Fprintf(bw, "# HELP sidco_node_recv_wait_seconds_total Per-node wall-clock time blocked in Recv.\n")
		fmt.Fprintf(bw, "# TYPE sidco_node_recv_wait_seconds_total counter\n")
		for _, n := range nodes {
			if nodeVals[n].RecvWaitNanos == 0 {
				continue
			}
			fmt.Fprintf(bw, "sidco_node_recv_wait_seconds_total{node=\"%d\"} %s\n", n, seconds(nodeVals[n].RecvWaitNanos))
		}
		for _, c := range []struct {
			name, help string
			of         func(NodeCounters) int64
		}{
			{"sidco_node_selected_elems_total", "Elements the node's compressor shipped.", func(nc NodeCounters) int64 { return nc.SelectedElems }},
			{"sidco_node_target_elems_total", "Elements the node's compressor was asked for.", func(nc NodeCounters) int64 { return nc.TargetElems }},
			{"sidco_node_select_list_corrections_total", "The node's steps corrected from an exceedance list.", func(nc NodeCounters) int64 { return nc.SelectListCorrections }},
			{"sidco_node_select_sweep_fallbacks_total", "The node's steps that fell back to an exact selection over the gradient.", func(nc NodeCounters) int64 { return nc.SelectSweepFallbacks }},
			{"sidco_node_apply_elems_total", "Gradient elements the node's optimizer updates were handed.", func(nc NodeCounters) int64 { return nc.ApplyElems }},
			{"sidco_node_recoveries_total", "The node's agreed membership renegotiations.", func(nc NodeCounters) int64 { return nc.Recoveries }},
			{"sidco_node_peers_lost_total", "Members the node's renegotiations dropped from its group.", func(nc NodeCounters) int64 { return nc.PeersLost }},
		} {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
			for _, n := range nodes {
				if v := c.of(nodeVals[n]); v != 0 {
					fmt.Fprintf(bw, "%s{node=\"%d\"} %d\n", c.name, n, v)
				}
			}
		}
	}
	return bw.Flush()
}

// ParseProm parses Prometheus plaintext exposition into a map from
// "name{labels}" (labels exactly as rendered, empty braces omitted) to
// value. Integer-rendered counters round-trip exactly (float64 is
// exact below 2^53). Comment and blank lines are skipped. The tests
// and cmd/sidco-node's -check use it to assert what an HTTP scrape of
// /metrics actually exported.
func ParseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("telemetry: metrics line %d has no value: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: metrics line %d: %w", ln+1, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}
