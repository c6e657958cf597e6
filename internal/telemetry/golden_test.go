package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from this tree")

// goldenAggregator emits every counter kind on two links and on a node,
// a message with no bytes in each direction of one link, a link that
// carried no gradient traffic, a node with a single kind, and several
// samples of every span kind: each branch WritePrometheus has.
func goldenAggregator() *Aggregator {
	agg := NewAggregator()
	tr := New(agg)
	for k := CounterKind(0); k < numCounterKinds; k++ {
		v := int64(k+1) * 1000
		tr.Count(k, 0, 1, v+1)
		tr.Count(k, 1, 0, v+2)
		tr.Count(k, 2, -1, v+3)
	}
	// recv_wait_nanos is exported in seconds: give it a fraction.
	tr.Count(CounterRecvWaitNanos, 2, -1, 1_234_567_891)
	// A ring chunk over an empty range ships 0 bytes; Count drops the
	// zero delta, and the message must still show on its link.
	tr.Count(CounterSentMessages, 3, 4, 1)
	tr.Count(CounterSentBytes, 3, 4, 0)
	tr.Count(CounterRecvMessages, 3, 4, 1)
	tr.Count(CounterRecvBytes, 3, 4, 0)
	// A link that only retried its dial carries no per-link traffic.
	tr.Count(CounterDialRetries, 5, 6, 2)
	// A node that only stepped has no series for its other kinds.
	tr.Count(CounterSteps, 7, -1, 1)
	for k := SpanKind(0); k < numSpanKinds; k++ {
		for i := int64(1); i <= 5; i++ {
			agg.Emit(Event{Type: EventSpan, Span: k, DurNanos: int64(k+1)*1_000_000 + i*1000})
		}
	}
	return agg
}

// TestPrometheusGolden holds /metrics to the series recorded in
// testdata/metrics.golden: every name, label set and value. Family order
// and HELP wording may move; regenerate with `go test -run
// TestPrometheusGolden -update ./internal/telemetry` and list what moved.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenAggregator().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := ParseProm(string(want))
	if err != nil {
		t.Fatal(err)
	}
	gotSeries, err := ParseProm(buf.String())
	if err != nil {
		t.Fatalf("rendered metrics do not parse: %v\n%s", err, buf.String())
	}
	for k, v := range wantSeries {
		if got, ok := gotSeries[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), golden %v", k, got, ok, v)
		}
	}
	for k, v := range gotSeries {
		if _, ok := wantSeries[k]; !ok {
			t.Errorf("%s = %v is not in the golden", k, v)
		}
	}
	checkExposition(t, buf.String())
}

// checkExposition asserts each family has exactly one # HELP and one
// # TYPE line, every sample belongs to a typed family, and within a
// family the numeric labels (from/to, node) ascend.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	help, typ := map[string]int{}, map[string]string{}
	last := map[string][]int{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				if _, dup := typ[f[2]]; dup {
					t.Errorf("family %s has two # TYPE lines", f[2])
				}
				typ[f[2]] = f[3]
			}
			continue
		}
		name, labels, _ := strings.Cut(line[:strings.LastIndexByte(line, ' ')], "{")
		family := name
		if _, ok := typ[family]; !ok {
			family = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		}
		if typ[family] == "" {
			t.Errorf("sample %q precedes or lacks its family's # TYPE", line)
			continue
		}
		var key []int
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, v, _ := strings.Cut(kv, "=")
			if k != "from" && k != "to" && k != "node" {
				continue
			}
			n, err := strconv.Atoi(strings.Trim(v, `"`))
			if err != nil {
				t.Errorf("label %s of %q is not an integer", k, line)
			}
			key = append(key, n)
		}
		if key == nil {
			continue
		}
		if prev := last[family]; prev != nil && !ascending(prev, key) {
			t.Errorf("family %s: labels %v follow %v", family, key, prev)
		}
		last[family] = key
	}
	for family := range typ {
		if help[family] != 1 {
			t.Errorf("family %s has %d # HELP lines, want 1", family, help[family])
		}
	}
	for family := range help {
		if _, ok := typ[family]; !ok {
			t.Errorf("family %s has # HELP but no # TYPE", family)
		}
	}
}

// ascending reports whether a sorts strictly before b.
func ascending(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
