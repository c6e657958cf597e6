package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {20, 10}, {21, 20}, {50, 30}, {90, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("nearest-rank median of an even sample = %v, want the lower middle 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tailPercentile(xs, 95); ok {
		t.Error("p95 of 199 samples has 9.95 samples beyond it and must not be reported")
	}
	xs = append(xs, 200)
	if v, ok := tailPercentile(xs, 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := tailPercentile(xs, 99); ok {
		t.Error("p99 of 200 samples has only 2 beyond it")
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] in Python.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread share = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{{110, 150}, {140, 160}, {190, 250}, {0, 90}}
	// Covered: [110,160) and [190,200) = 60 of 100.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestCoveredByIsTheTimeEveryLaneIsOccupied(t *testing.T) {
	window := interval{0, 100}
	a := []interval{{0, 30}, {50, 90}}
	b := []interval{{20, 60}, {80, 120}}
	// Both occupied: [20,30), [50,60), [80,90).
	if got := coveredBy(window, [][]interval{a, b}); got != 30 {
		t.Errorf("covered by both = %d, want 30", got)
	}
	if got := coveredBy(window, [][]interval{a}); got != 70 {
		t.Errorf("covered by one lane = %d, want 70", got)
	}
}

func TestResidualShare(t *testing.T) {
	if got := residualShare(40, 39); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("residual = %v, want 0.025", got)
	}
	if got := residualShare(40, 42); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("an overshoot counts too: %v, want 0.05", got)
	}
	if got := residualShare(0, 0); got != 1 {
		t.Errorf("no step measured must read as unaccounted, got %v", got)
	}
}

// A two-lane train step by hand: rank 1 reaches the exchange last, so its
// timeline is the one attributed.
func TestAttributeTrainFollowsTheCriticalRank(t *testing.T) {
	clock := int64(0)
	tr := newTracer(2, func() int64 { return clock })
	tr.on.Store(true)
	at := func(ts int64, f func()) { clock = ts; f() }
	var step [2]spanRef
	for r, shift := range []int64{0, 5} {
		tr.setStep(r, 7)
		at(1000+shift, func() { step[r] = tr.begin(r, spStep) })
		var b, c, i, x, s, a, bar spanRef
		at(1001+shift, func() { b = tr.begin(r, spBatch) })
		at(1003+shift, func() { tr.end(b) })
		at(1020+shift*2, func() { c = tr.begin(r, spCompress) })
		at(1022+shift*2, func() { i = tr.begin(r, spInner) })
		at(1030+shift*2, func() { tr.end(i) })
		at(1034+shift*2, func() { tr.end(c) })
		at(1035+shift*2, func() { x = tr.begin(r, spExchange) })
		at(1036+shift*2, func() { s = tr.begin(r, spSend) })
		at(1038+shift*2, func() { tr.end(s) })
		at(1060, func() { tr.end(x) })
		at(1061, func() { a = tr.begin(r, spApply) })
		at(1064, func() { tr.end(a) })
		at(1065, func() { bar = tr.begin(r, spBarrier) })
		at(1066, func() { tr.end(bar) })
		at(1067+shift, func() { tr.end(step[r]) })
	}
	layers := attribute(tr, trainLayout())
	if len(layers) != 1 {
		t.Fatalf("attributed %d steps, want 1", len(layers))
	}
	l := layers[0]
	want := stepLayers{
		StepNo: 7,
		Step:   1072 - 1000, Batch: 2, FwdBwd: 1030 - 1008, Inner: 8, EC: 14 - 8,
		Exchange: 1060 - 1045, Send: 2, RecvWait: 0, SchedSelf: 15 - 2,
		Apply: 3, Barrier: 1, Skew: 10,
	}
	want.Self = want.Step - (want.Batch + want.FwdBwd + want.Inner + want.EC + want.Exchange + want.Apply + want.Barrier)
	if l != want {
		t.Errorf("attribution\n got %+v\nwant %+v", l, want)
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := &report{
		Schema:      reportSchema,
		Fingerprint: fingerprint{NProc: 2, GoMaxProcs: 2, CPU: "x", GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", Commit: "abc"},
		Seconds:     10,
		Sizes:       workloads,
		Workloads: []workloadReport{{
			Name: "train-sidco-tcp",
			Runs: []runResult{{Workload: "train-sidco-tcp", Seed: 3, Steps: 250, Correct: true, Attempted: 400, Digest: "00ff",
				Metrics: []metric{{Name: "step_ms_p50", Value: 38.25, Unit: "ms", N: 250, Q1: 37, Q3: 40}}}},
			Traced: &runResult{Workload: "train-sidco-tcp", Seed: 3, Trace: true, Correct: false, Failed: 1, Failures: []string{"x"}},
		}},
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out report
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Errorf("report changed in a JSON round trip:\n in %+v\nout %+v", in, &out)
	}
	if out.ok() {
		t.Error("a report holding a failed run must not read as ok")
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.08}
	steady := []float64{100, 101, 100, 99, 100}
	if r := judge(def, steady, []float64{104, 105, 104, 103, 104}); r.Verdict != verdictUnchanged {
		t.Errorf("4%% worse within an 8%% bound: %s", r.Verdict)
	}
	if r := judge(def, steady, []float64{110, 111, 110, 109, 110}); r.Verdict != verdictRegressed {
		t.Errorf("10%% worse: %s", r.Verdict)
	}
	if r := judge(def, steady, []float64{90, 120, 100, 80, 110}); r.Verdict != verdictUnresolved {
		t.Errorf("runs spreading wider than the bound must be unresolved, not unchanged: %s", r.Verdict)
	}
	up := metricDef{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	if r := judge(up, steady, []float64{85, 86, 85, 84, 85}); r.Verdict != verdictRegressed || r.Worse <= 0 {
		t.Errorf("a drop in a higher-is-better metric is a regression: %+v", r)
	}
	if r := judge(def, []float64{100}, []float64{100}); r.Verdict != verdictUnresolved {
		t.Errorf("single runs carry no spread: %s", r.Verdict)
	}
}

func TestCompareRefusesDifferentMachinesAndSizes(t *testing.T) {
	a := &report{Schema: reportSchema, Fingerprint: fingerprint{NProc: 2, CPU: "x"}, Seconds: 10, Sizes: workloads,
		Workloads: []workloadReport{{Name: "w"}}}
	b := *a
	b.Fingerprint.Commit = "other"
	if _, err := compareReports(a, &b); err != nil {
		t.Errorf("a different commit is what a comparison is for: %v", err)
	}
	b.Fingerprint.NProc = 4
	if _, err := compareReports(a, &b); err == nil {
		t.Error("compared reports from machines with different CPU counts")
	}
	c := *a
	c.Sizes = append([]spec(nil), workloads...)
	c.Sizes[0].Hidden++
	if _, err := compareReports(a, &c); err == nil {
		t.Error("compared reports run at different frozen sizes")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "w", "--trace", "0", "--seed", "3"})
	want := []string{"--workload", "w", "-trace=0", "--seed", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-workload", "w", "-trace"})
	want = []string{"-workload", "w", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// BENCHMARK.json is the contract; metrics.go and workloads.go are what the
// program does. They must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, implemented %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, implemented %+v", i, m, d)
		}
	}
}

// All five workloads at smoke-test size, untraced and traced: every
// declared metric comes out, the checks pass, and the decorators change
// nothing the program computes.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		s := w.tiny()
		plain, err := runWorkload(runConfig{spec: s, seed: 1, steps: 12, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		traced, err := runWorkload(runConfig{spec: s, seed: 1, steps: 12, trace: true, outDir: out})
		if err != nil {
			t.Fatalf("%s traced: %v", s.Name, err)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced outputs %s differ from untraced %s", s.Name, traced.Digest, plain.Digest)
		}
		for _, res := range []*runResult{plain, traced} {
			for _, f := range res.Failures {
				// At a few microseconds per step the layer medians need not
				// reconcile; every other check must hold at any size.
				if !strings.HasPrefix(f, "layer medians account") {
					t.Errorf("%s trace=%v: %s", s.Name, res.Trace, f)
				}
			}
		}
		line := driverLine(plain)
		for _, d := range endToEnd {
			if v := line.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.Name, d.Name, v)
			}
		}
		have := map[string]bool{}
		for _, m := range traced.Metrics {
			have[m.Name] = true
		}
		if got := len(driverLine(traced).Metrics); got != len(perLayer) {
			t.Errorf("%s: traced line carries %d metrics, want %d", s.Name, got, len(perLayer))
		}
		if !have["dist.step_ms_p50"] || !have["cluster.exchange_ms"] || !have["dist.layer_sum_residual_share"] {
			t.Errorf("%s: the traced run attributed nothing: %v", s.Name, have)
		}
		if _, err := os.Stat(out + "/" + s.Name + ".trace.jsonl"); err != nil {
			t.Errorf("%s: no span file: %v", s.Name, err)
		}
		other, err := runWorkload(runConfig{spec: s, seed: 2, steps: 12, outDir: out})
		if err != nil {
			t.Fatalf("%s seed 2: %v", s.Name, err)
		}
		if other.Digest == plain.Digest {
			t.Errorf("%s: seeds 1 and 2 computed the same outputs", s.Name)
		}
	}
}
