package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
)

const reportSchema = "sidco-stepbench/v1"

// fingerprint is the hardware and toolchain a report was measured on.
// Reports with different fingerprints are not comparable; the commit is
// carried along but is, of course, allowed to differ.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func (f fingerprint) comparable(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

// commit is set by run.sh at link time; a plain `go run .` falls back to
// the revision the go tool stamps into the binary.
var commit string

func readFingerprint() fingerprint {
	f := fingerprint{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				f.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if commit != "" {
		f.Commit = commit
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				f.Commit = kv.Value
			}
		}
	}
	return f
}

// workloadReport is every run of one workload in a report.
type workloadReport struct {
	Name   string      `json:"name"`
	Runs   []runResult `json:"runs"`             // tracing off, one per seed
	Traced *runResult  `json:"traced,omitempty"` // the per-layer run
}

// report is the merged document `go run . ` prints: every workload,
// untraced then traced, with the sizes it was run at.
type report struct {
	Schema      string           `json:"schema"`
	Fingerprint fingerprint      `json:"fingerprint"`
	Seconds     float64          `json:"seconds"`
	Sizes       []spec           `json:"sizes"`
	Workloads   []workloadReport `json:"workloads"`
}

func (r *report) ok() bool {
	for _, w := range r.Workloads {
		for _, run := range w.Runs {
			if !run.Correct {
				return false
			}
		}
		if w.Traced != nil && !w.Traced.Correct {
			return false
		}
	}
	return true
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: holds no workload", path)
	}
	return &r, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// across collects one metric's value from each of a workload's runs.
func across(runs []runResult, name string) []float64 {
	var out []float64
	for _, run := range runs {
		for _, m := range run.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdicts of a comparison row.
const (
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload x end-to-end metric pairing of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // q1, median, q3 across runs
	Worse                  float64    // share of A's median by which B is worse (negative: better)
	Spread                 float64    // larger run-to-run spread of the two sides
	Bound                  float64
	Verdict                string
}

// judge decides one row: a change no worse than the bound is unchanged,
// unless the runs of either side spread wider than the bound, in which
// case the benchmark cannot tell and says so.
func judge(def metricDef, a, b []float64) compareRow {
	row := compareRow{Metric: def.Name, Unit: def.Unit, Bound: def.Bound}
	row.A[0], row.A[1], row.A[2] = quartiles(a)
	row.B[0], row.B[1], row.B[2] = quartiles(b)
	if row.A[1] != 0 {
		row.Worse = (row.B[1] - row.A[1]) / row.A[1]
		if def.Better == "higher" {
			row.Worse = -row.Worse
		}
	}
	row.Spread = max(spreadShare(a), spreadShare(b))
	switch {
	case len(a) < 2 || len(b) < 2 || row.Spread > def.Bound:
		row.Verdict = verdictUnresolved
	case row.Worse > def.Bound:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictUnchanged
	}
	return row
}

// compareReports lines two reports up row by row. It refuses reports
// from different machines or of different frozen sizes: their numbers
// answer different questions.
func compareReports(a, b *report) ([]compareRow, error) {
	if !a.Fingerprint.comparable(b.Fingerprint) {
		return nil, fmt.Errorf("fingerprints differ: %+v vs %+v", a.Fingerprint, b.Fingerprint)
	}
	if !reflect.DeepEqual(a.Sizes, b.Sizes) || a.Seconds != b.Seconds {
		return nil, fmt.Errorf("the reports were run at different frozen sizes or measuring times")
	}
	var rows []compareRow
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, def := range endToEnd {
				row := judge(def, across(wa.Runs, def.Name), across(wb.Runs, def.Name))
				row.Workload = wa.Name
				rows = append(rows, row)
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the reports share no workload")
	}
	return rows, nil
}

func printComparison(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-22s %-20s %-5s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-20s %-5s %14.6g %14.6g %+8.2f%% %8.2f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A[1], r.B[1], 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
		fmt.Fprintf(w, "%-22s %-20s %-5s   [%.6g .. %.6g] vs [%.6g .. %.6g]\n", "", "", "", r.A[0], r.A[2], r.B[0], r.B[2])
	}
}

// ---- the step budget, as markdown ---------------------------------------

// budgetLayers are the rows of the "where does a step go" table: the
// layer medians that add up to the step.
var budgetLayers = []string{
	"data.batch_ms", "nn.fwdbwd_ms", "compress.inner_ms", "compress.ec_ms",
	"cluster.exchange_ms", "nn.apply_ms", "tensor.apply_ms", "cluster.barrier_ms", "dist.step_self_ms",
}

// budgetDetail are reported beside the budget: parts of a layer above,
// or single-layer replays, so they do not add to the step.
var budgetDetail = []string{
	"cluster.send_ms", "cluster.recv_wait_ms", "cluster.sched_self_ms", "cluster.rank_skew_ms",
	"stats.fit_ms", "tensor.select_ms", "tensor.filter_ms", "encoding.encode_ms", "encoding.decode_ms",
	"dist.inproc_reduce_ms", "dist.inproc_step_ms_p50",
}

func tracedValue(w workloadReport, name string) float64 {
	if w.Traced == nil {
		return 0
	}
	for _, m := range w.Traced.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// writeBudgetMarkdown renders the committed STEPBUDGET.md.
func writeBudgetMarkdown(out io.Writer, r *report) {
	f := r.Fingerprint
	fmt.Fprintf(out, "# Where does a step go\n\n")
	fmt.Fprintf(out, "Generated by `go run . -report md` in `bench/`; do not edit. Times are medians over the traced\n")
	fmt.Fprintf(out, "steps of one run per workload, in milliseconds, on the critical rank (the rank that reached\n")
	fmt.Fprintf(out, "the exchange last), at the reference machine's speed (each divided by the machine's slowdown\n")
	fmt.Fprintf(out, "while it was measured, see README.md). `share` is the share of the traced median step.\n\n")
	fmt.Fprintf(out, "Fingerprint: %d CPUs, GOMAXPROCS %d, %s, %s %s/%s, commit %s, %g s per run.\n\n",
		f.NProc, f.GoMaxProcs, f.CPU, f.GoVersion, f.GOOS, f.GOARCH, f.Commit, r.Seconds)

	fmt.Fprintf(out, "## End to end (tracing off, median of %d runs, seeds differ)\n\n", len(r.Workloads[0].Runs))
	fmt.Fprintf(out, "| workload |")
	for _, def := range endToEnd {
		fmt.Fprintf(out, " %s (%s) |", def.Name, def.Unit)
	}
	fmt.Fprintf(out, "\n|---|")
	for range endToEnd {
		fmt.Fprintf(out, "---|")
	}
	fmt.Fprintln(out)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "| `%s` |", w.Name)
		for _, def := range endToEnd {
			vals := across(w.Runs, def.Name)
			fmt.Fprintf(out, " %.5g ±%.1f%% |", median(vals), 100*spreadShare(vals))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\n± is the interquartile range of the runs as a share of their median.\n\n")

	fmt.Fprintf(out, "## Step budget (traced run)\n\n| layer |")
	for _, w := range r.Workloads {
		fmt.Fprintf(out, " `%s` | share |", w.Name)
	}
	fmt.Fprintf(out, "\n|---|")
	for range r.Workloads {
		fmt.Fprintf(out, "---|---|")
	}
	fmt.Fprintln(out)
	row := func(name string, share bool) {
		fmt.Fprintf(out, "| `%s` |", name)
		for _, w := range r.Workloads {
			v, step := tracedValue(w, name), tracedValue(w, "dist.step_ms_p50")
			if share && step > 0 {
				fmt.Fprintf(out, " %.3f | %.1f%% |", v, 100*v/step)
			} else {
				fmt.Fprintf(out, " %.3f | |", v)
			}
		}
		fmt.Fprintln(out)
	}
	for _, name := range budgetLayers {
		row(name, true)
	}
	row("dist.step_ms_p50", true)
	fmt.Fprintf(out, "| `dist.layer_sum_residual_share` |")
	for _, w := range r.Workloads {
		fmt.Fprintf(out, " %.2f%% | |", 100*tracedValue(w, "dist.layer_sum_residual_share"))
	}
	fmt.Fprintf(out, "\n\n## Inside the layers (not additive)\n\n| metric |")
	for _, w := range r.Workloads {
		fmt.Fprintf(out, " `%s` | share |", w.Name)
	}
	fmt.Fprintf(out, "\n|---|")
	for range r.Workloads {
		fmt.Fprintf(out, "---|---|")
	}
	fmt.Fprintln(out)
	for _, name := range budgetDetail {
		row(name, true)
	}
	row("dist.step_ms_raw_p50", false)
	row("machine.slowdown", false)

	fmt.Fprintf(out, "\n## Layer predictions\n\nEach prediction was written down in ISSUE 11 before measuring; a failed one is reported, not tuned away.\n\n")
	for _, p := range predictions(r) {
		mark := "holds"
		if !p.holds {
			mark = "**FAILS**"
		}
		fmt.Fprintf(out, "- %s: %s — %s\n", mark, p.claim, p.numbers)
	}
}

type prediction struct {
	claim, numbers string
	holds          bool
}

// predictions evaluates the issue's layer predictions on a report.
func predictions(r *report) []prediction {
	by := map[string]workloadReport{}
	for _, w := range r.Workloads {
		by[w.Name] = w
	}
	share := func(w string, names ...string) float64 {
		step := tracedValue(by[w], "dist.step_ms_p50")
		if step == 0 {
			return 0
		}
		sum := 0.0
		for _, n := range names {
			sum += tracedValue(by[w], n)
		}
		return sum / step
	}
	var out []prediction
	for _, w := range []string{"grad-sidcoe-d2m", "grad-sidcogp-d2m"} {
		v := share(w, "compress.inner_ms", "compress.ec_ms")
		out = append(out, prediction{
			claim:   fmt.Sprintf("compress + stats self time is at least 60%% of the step on `%s`", w),
			numbers: fmt.Sprintf("%.1f%%", 100*v), holds: v >= 0.60,
		})
	}
	v := share("train-dense-tcp", "compress.inner_ms", "compress.ec_ms", "stats.fit_ms")
	out = append(out, prediction{
		claim:   "compress + stats time is 0 on `train-dense-tcp`",
		numbers: fmt.Sprintf("%.1f%%", 100*v), holds: v == 0,
	})
	const topk = "grad-topk-bitmap-ps"
	sched := share(topk, "cluster.sched_self_ms")
	others := map[string]float64{
		"compress.ec_ms":    share(topk, "compress.ec_ms"),
		"tensor.apply_ms":   share(topk, "tensor.apply_ms"),
		"dist.step_self_ms": share(topk, "dist.step_self_ms"),
	}
	holds, nums := true, fmt.Sprintf("sched_self %.1f%% (select %.1f%%)", 100*sched, 100*share(topk, "compress.inner_ms"))
	for name, o := range others {
		nums += fmt.Sprintf(", %s %.1f%%", name, 100*o)
		holds = holds && sched > o
	}
	out = append(out, prediction{
		claim:   "encoding + `cluster.sched_self_ms` is the largest share after select on `" + topk + "`",
		numbers: nums, holds: holds,
	})
	v = share("grad-sidcoe-d2m", "cluster.sched_self_ms")
	out = append(out, prediction{
		claim:   "encoding + `cluster.sched_self_ms` is under 2% of the step on `grad-sidcoe-d2m`",
		numbers: fmt.Sprintf("%.2f%%", 100*v), holds: v < 0.02,
	})
	wire := func(w string) float64 {
		return tracedValue(by[w], "cluster.send_ms") + tracedValue(by[w], "cluster.recv_wait_ms")
	}
	d, s := wire("train-dense-tcp"), wire("train-sidco-tcp")
	out = append(out, prediction{
		claim:   "`cluster.send_ms + recv_wait_ms` is larger on `train-dense-tcp` than on `train-sidco-tcp`",
		numbers: fmt.Sprintf("%.3f ms vs %.3f ms", d, s), holds: d > s,
	})
	return out
}
