package telemetry

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
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
	s.dropped++
	s.ring[s.pos] = durNS
	s.pos++
	if s.pos == ringCap {
		s.pos = 0
	}
}

// Link names a directed link in aggregated link counters.
type Link struct{ From, To int32 }

// Counters holds one value per CounterKind, read as c[kind]: a run's
// totals, or one directed link's or one node's share of them. A link's
// Counters hold only the link-attributed kinds and a node's only the
// node-attributed ones; the other entries stay zero.
type Counters [numCounterKinds]int64

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
	totals Counters                // guarded by mu
	links  map[Link]*Counters      // guarded by mu
	nodes  map[int32]*Counters     // guarded by mu
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		links: make(map[Link]*Counters),
		nodes: make(map[int32]*Counters),
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
	if e.Type != EventCounter || e.Counter >= numCounterKinds {
		// EventVirtual (and any future shape) carries no wall-clock
		// aggregate: virtual windows belong to trace assembly, not to
		// the live metrics surface.
		return
	}
	a.totals[e.Counter] += e.Value
	var c *Counters
	if counterRows[e.Counter].scope == nodeScope {
		c = counterSlot(a.nodes, e.Node)
	} else {
		c = counterSlot(a.links, Link{e.Node, e.Peer})
	}
	c[e.Counter] += e.Value
}

// counterSlot returns m's Counters for key, created on first sight.
//
//sidco:hotpath
func counterSlot[K comparable](m map[K]*Counters, key K) *Counters {
	c := m[key]
	if c == nil {
		c = new(Counters) //sidco:alloc first sight of a link or node only; steady state hits the map
		m[key] = c
	}
	return c
}

// Snapshot copies the counters under the lock: the totals over every
// event, and each directed link's and each node's share. A link or node
// that saw no event is absent, so its Counters read as zero.
func (a *Aggregator) Snapshot() (totals Counters, links map[Link]Counters, nodes map[int32]Counters) {
	a.mu.Lock()
	defer a.mu.Unlock()
	links = make(map[Link]Counters, len(a.links))
	for l, c := range a.links {
		links[l] = *c
	}
	nodes = make(map[int32]Counters, len(a.nodes))
	for n, c := range a.nodes {
		nodes[n] = *c
	}
	return a.totals, links, nodes
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
		slices.Sort(scratch)
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
	a.totals = Counters{}
	a.links = make(map[Link]*Counters)
	a.nodes = make(map[int32]*Counters)
}

// seconds renders nanoseconds as a decimal seconds literal.
func seconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// family is the kind's Prometheus family with the given scope prefix
// ("", "link_" or "node_"), and its value renderer: exact integers, or
// seconds for a _nanos kind.
func (r counterRow) family(prefix string) (string, func(int64) string) {
	if name, ok := strings.CutSuffix(r.name, "_nanos"); ok {
		return "sidco_" + prefix + name + "_seconds_total", seconds
	}
	return "sidco_" + prefix + r.name + "_total", func(v int64) string { return strconv.FormatInt(v, 10) }
}

// WritePrometheus renders the aggregate in the Prometheus plaintext
// exposition format (version 0.0.4). Integer counters are rendered as
// exact integers, so a scrape — or ParseProm — recovers byte and
// message totals without loss; durations are rendered in seconds.
// Every counter kind has a total family; the gradient-traffic kinds add
// one per directed link and the node-attributed kinds one per node
// (counterRows). Output order is deterministic: kinds in declaration
// order, links and nodes sorted.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	spans := a.Spans()
	totals, links, nodes := a.Snapshot()
	linkKeys := slices.SortedFunc(maps.Keys(links), func(x, y Link) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	nodeKeys := slices.Sorted(maps.Keys(nodes))

	bw := bufio.NewWriter(w)
	header := func(family, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", family, help, family)
	}
	fmt.Fprintf(bw, "# HELP sidco_span_duration_seconds Monotonic wall-clock span durations per phase.\n")
	fmt.Fprintf(bw, "# TYPE sidco_span_duration_seconds summary\n")
	for _, s := range spans {
		for _, q := range []struct {
			label string
			v     time.Duration
		}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
			fmt.Fprintf(bw, "sidco_span_duration_seconds{span=%q,quantile=%q} %s\n", s.Kind, q.label, seconds(int64(q.v)))
		}
		fmt.Fprintf(bw, "sidco_span_duration_seconds_sum{span=%q} %s\n", s.Kind, seconds(int64(s.Sum)))
		fmt.Fprintf(bw, "sidco_span_duration_seconds_count{span=%q} %d\n", s.Kind, s.Count)
	}
	header("sidco_span_samples_dropped_total", "Span duration samples overwritten in the bounded percentile ring; non-zero means the quantiles above cover a recent window, not the whole run.")
	for _, s := range spans {
		fmt.Fprintf(bw, "sidco_span_samples_dropped_total{span=%q} %d\n", s.Kind, s.Dropped)
	}

	for k, r := range counterRows {
		family, format := r.family("")
		header(family, r.help+".")
		fmt.Fprintf(bw, "%s %s\n", family, format(totals[k]))
	}
	// A link's traffic series open with its direction's first message,
	// which may carry no bytes.
	opens := map[scope]CounterKind{sentScope: CounterSentMessages, recvScope: CounterRecvMessages}
	for k, r := range counterRows {
		msgs, perLink := opens[r.scope]
		if !perLink || len(linkKeys) == 0 {
			continue
		}
		family, format := r.family("link_")
		header(family, r.help+", per directed link.")
		for _, l := range linkKeys {
			if c := links[l]; c[k] != 0 || c[msgs] != 0 {
				fmt.Fprintf(bw, "%s{from=\"%d\",to=\"%d\"} %s\n", family, l.From, l.To, format(c[k]))
			}
		}
	}
	for k, r := range counterRows {
		if len(nodeKeys) == 0 || r.scope != nodeScope {
			continue
		}
		family, format := r.family("node_")
		header(family, r.help+", per node.")
		for _, n := range nodeKeys {
			if v := nodes[n][k]; v != 0 {
				fmt.Fprintf(bw, "%s{node=\"%d\"} %s\n", family, n, format(v))
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
