// Command bench is the repository's step benchmark: it drives whole
// training steps through the public APIs of dist, cluster, compress/core,
// encoding, nn, data and simgrad, checks what they computed, and reports
// end-to-end step metrics (tracing off) or a per-layer budget (tracing on).
// See README.md for the metric glossary and how to run, trace and compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// maxProcs pins GOMAXPROCS: go 1.24 ignores container CPU quotas, and the
// workloads are sized for the two cores of the reference box.
const maxProcs = 2

// runLimit aborts a run that has hung: the driver allows a run 180 s.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	result   string
	repeat   int
	aa       bool
	compare  bool
	report   string
}

// normalizeArgs lets -trace stand alone or take a separate 0/1 operand
// (the benchmark driver passes "--trace 0"), which flag's boolean syntax
// does not.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func main() {
	runtime.GOMAXPROCS(maxProcs)
	var opt options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&opt.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every generated input: dataset, model init, batch streams, gradient pools")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long each run measures")
	fs.BoolVar(&opt.trace, "trace", false, "record spans around every layer and report the per-layer metrics")
	fs.StringVar(&opt.out, "out", "", "directory for span files and child results (default bench/out)")
	fs.StringVar(&opt.result, "result", "", "also write the run's full result as JSON to this file")
	fs.IntVar(&opt.repeat, "repeat", 5, "untraced runs per workload when running all workloads, seeds seed..seed+repeat-1")
	fs.BoolVar(&opt.aa, "aa", false, "run all workloads twice back to back and compare the two sets")
	fs.BoolVar(&opt.compare, "compare", false, "compare two report files: -compare A.json B.json")
	fs.StringVar(&opt.report, "report", "json", "format of the all-workloads report: json or md")
	fs.Parse(normalizeArgs(os.Args[1:]))
	if opt.out == "" {
		opt.out = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			opt.out = filepath.Join("bench", "out")
		}
	}

	var err error
	switch {
	case opt.compare:
		err = compareFiles(fs.Args())
	case opt.workload != "":
		err = single(opt)
	case opt.aa:
		err = aa(opt)
	default:
		// With a report file as operand, render that report instead of
		// measuring anew (-report md out/aa.A.json > STEPBUDGET.md).
		var r *report
		if args := fs.Args(); len(args) == 1 {
			r, err = readReport(args[0])
		} else {
			r, err = runAll(opt)
		}
		if err == nil {
			if opt.report == "md" {
				writeBudgetMarkdown(os.Stdout, r)
			} else {
				err = writeJSON(os.Stdout, r)
			}
			if err == nil && !r.ok() {
				err = errors.New("a correctness check failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process and prints every metric by
// name, then the one-line JSON object the benchmark driver reads.
func single(opt options) error {
	s, err := workloadByName(opt.workload)
	if err != nil {
		return err
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runLimit)
		os.Exit(2)
	})
	defer watchdog.Stop()
	res, err := runWorkload(runConfig{spec: s, seed: opt.seed, seconds: opt.seconds, trace: opt.trace, outDir: opt.out})
	if err != nil {
		return err
	}
	if opt.result != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(opt.result), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(opt.result, b, 0o644); err != nil {
			return err
		}
	}
	fp := readFingerprint()
	fmt.Printf("# %s seed=%d trace=%v steps=%d digest=%s\n", res.Workload, res.Seed, res.Trace, res.Steps, res.Digest)
	fmt.Printf("# nproc=%d gomaxprocs=%d cpu=%q %s %s/%s commit=%s\n", fp.NProc, fp.GoMaxProcs, fp.CPU, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.Commit)
	for _, m := range res.Metrics {
		fmt.Printf("%-34s %16.6f %-6s n=%-6d q1=%.6f q3=%.6f\n", m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checks and steps failed", res.Failed, res.Attempted)
	}
	return nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverLine keeps exactly the metrics BENCHMARK.json declares for the
// run's mode: the end-to-end ones untraced, the per-layer ones traced. A
// layer the workload does not have reads 0.
func driverLine(res *runResult) driverResult {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	have := map[string]metric{}
	for _, m := range res.Metrics {
		have[m.Name] = m
	}
	out := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = driverMetric{Value: have[d.Name].Value, Unit: d.Unit}
	}
	return out
}

// child runs one workload in a process of its own and reads back its
// full result; the child's own report goes to stderr so the parent's
// stdout stays one document.
func child(opt options, s spec, seed int64, trace bool) (runResult, error) {
	var res runResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	tag := "untraced"
	traceArg := "-trace=0"
	if trace {
		tag, traceArg = "traced", "-trace=1"
	}
	path := filepath.Join(opt.out, fmt.Sprintf("%s.%s.seed%d.json", s.Name, tag, seed))
	cmd := exec.Command(exe, "-workload", s.Name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(opt.seconds), traceArg, "-out", opt.out, "-result", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", s.Name, seed, errors.Join(runErr, err))
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, err
	}
	return res, nil
}

// runAll runs every workload: repeat untraced runs on consecutive seeds,
// then one traced run, each in its own process. It also checks that the
// decorators changed nothing: the traced run's outputs must hash to the
// same digest as the untraced run of the same seed.
func runAll(opt options) (*report, error) {
	r := &report{Schema: reportSchema, Fingerprint: readFingerprint(), Seconds: opt.seconds, Sizes: workloads}
	for _, s := range workloads {
		wr := workloadReport{Name: s.Name}
		for i := 0; i < opt.repeat; i++ {
			res, err := child(opt, s, opt.seed+int64(i), false)
			if err != nil {
				return nil, err
			}
			wr.Runs = append(wr.Runs, res)
		}
		traced, err := child(opt, s, opt.seed, true)
		if err != nil {
			return nil, err
		}
		if len(wr.Runs) > 0 && traced.Digest != wr.Runs[0].Digest {
			traced.Correct = false
			traced.Failed++
			traced.Failures = append(traced.Failures, fmt.Sprintf("traced outputs %s differ from untraced %s: a decorator changed what the program computes", traced.Digest, wr.Runs[0].Digest))
		}
		wr.Traced = &traced
		r.Workloads = append(r.Workloads, wr)
	}
	return r, nil
}

// aa runs the whole benchmark twice on the same code and compares the
// two sets: every row must come out unchanged for the bounds to be
// usable as regression gates.
func aa(opt options) error {
	var sets [2]*report
	for i := range sets {
		r, err := runAll(opt)
		if err != nil {
			return err
		}
		if !r.ok() {
			return errors.New("a correctness check failed")
		}
		sets[i] = r
		f, err := os.Create(filepath.Join(opt.out, fmt.Sprintf("aa.%c.json", 'A'+i)))
		if err != nil {
			return err
		}
		err = writeJSON(f, r)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	rows, err := compareReports(sets[0], sets[1])
	if err != nil {
		return err
	}
	printComparison(os.Stdout, rows)
	return failOnRegression(rows)
}

func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two report files: -compare A.json B.json")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	rows, err := compareReports(a, b)
	if err != nil {
		return err
	}
	printComparison(os.Stdout, rows)
	return failOnRegression(rows)
}

func failOnRegression(rows []compareRow) error {
	n := 0
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			n++
		}
	}
	if n > 0 {
		return fmt.Errorf("%d of %d rows regressed beyond their bound", n, len(rows))
	}
	return nil
}
