package traceview

import (
	"bytes"
	"encoding/json"

	"testing"

	"repro/internal/cluster"
	"repro/internal/netsim"
)

// TestChromeTraceSchema validates the exported trace-event JSON against
// the subset of the Chrome trace format Perfetto requires: a
// traceEvents array whose members carry a known phase, non-negative
// complete-event durations, per-process metadata for every rank, and a
// matching "f" for every flow start "s".
func TestChromeTraceSchema(t *testing.T) {
	const dim = 1024
	s, _ := runEngineTrace(t, cluster.Config{
		Collective: netsim.CollectiveAllGather, ComputeSec: 1.0 / (1 << 14),
	}, uniformSparseInputs(t, dim, 4), dim, 2)
	tl := assemble1(t, s)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if trace.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayUnit)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	flows := map[any][2]int{} // id -> {s count, f count}
	processNames := map[any]bool{}
	var xEvents int
	for i, e := range trace.TraceEvents {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		if _, ok := e["pid"]; !ok {
			t.Fatalf("event %d has no pid: %v", i, e)
		}
		switch ph {
		case "X":
			xEvents++
			ts, tsOK := e["ts"].(float64)
			if !tsOK || ts < 0 {
				t.Fatalf("X event %d has bad ts: %v", i, e)
			}
			if dur, ok := e["dur"].(float64); ok && dur < 0 {
				t.Fatalf("X event %d has negative dur: %v", i, e)
			}
			if name == "" {
				t.Fatalf("X event %d unnamed: %v", i, e)
			}
		case "M":
			if name == "process_name" {
				processNames[e["pid"]] = true
			}
		case "s", "f":
			id, ok := e["id"]
			if !ok {
				t.Fatalf("flow event %d has no id: %v", i, e)
			}
			c := flows[id]
			if ph == "s" {
				c[0]++
			} else {
				c[1]++
				if bp, _ := e["bp"].(string); bp != "e" {
					t.Fatalf("flow finish %d must bind to the enclosing slice (bp=e): %v", i, e)
				}
			}
			flows[id] = c
		default:
			t.Fatalf("event %d has unknown phase %q", i, ph)
		}
	}
	if xEvents == 0 {
		t.Fatal("no complete events exported")
	}
	for n := int32(0); n < workers; n++ {
		if !processNames[float64(n)] {
			t.Errorf("no process_name metadata for rank %d", n)
		}
	}
	paired, _, _ := tl.PairStats(false)
	if len(flows) != paired {
		t.Errorf("%d flow ids for %d paired messages", len(flows), paired)
	}
	for id, c := range flows {
		if c[0] != 1 || c[1] != 1 {
			t.Errorf("flow %v has %d starts and %d finishes, want exactly one of each", id, c[0], c[1])
		}
	}
}
