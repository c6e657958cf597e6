// Command sidco-trace assembles per-rank telemetry JSONL streams (the
// -telemetry output of cmd/sidco-node, or a single-process engine
// stream) into one merged global timeline and analyzes it.
//
// Sends and receives are paired exactly by per-link sequence number;
// per-rank clocks are aligned from the paired messages themselves
// (midpoint of the feasible offset interval, error bounded by half the
// minimum round-trip); the analysis extracts per-step critical paths,
// attributes waiting time to the ranks being waited on, and rolls up
// per-phase busy time per rank.
//
// Usage:
//
//	sidco-trace trace.jsonl.rank0 trace.jsonl.rank1 ...          # plaintext report
//	sidco-trace -chrome trace.json trace.jsonl.rank*             # + Perfetto/chrome://tracing export
//	sidco-trace -step 3 trace.jsonl.rank*                        # one step only
//	sidco-trace -check -collective allgather -workers 4 -iters 6 trace.jsonl.rank*
//
// -check exits non-zero unless every send pairs with exactly one
// receive (gradient and wire layers both); with -collective/-workers/
// -iters it additionally asserts the paired-message total equals the
// collective's closed-form count — the CI gate over real TCP
// deployments. A flag the run would ignore (-collective, -workers or
// -iters without -check, -step without the report) and a -step no event
// of the traces belongs to are refused with exit status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/traceview"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and runs the command, returning its exit status: 2 on
// a flag parse error, 1 on a refused run or a failed check.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sidco-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chromePath := fs.String("chrome", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	report := fs.Bool("report", true, "print the plaintext analysis report")
	step := fs.Int64("step", -1, "restrict the report's critical path to one training step the traces carry (-1: per-step sections for all steps)")
	check := fs.Bool("check", false, "exit non-zero unless every send is paired with exactly one receive")
	collective := fs.String("collective", "", "with -check: assert message counts against this collective's formula (ring, allgather, ps)")
	workers := fs.Int("workers", 0, "with -check -collective: worker count N of the formula")
	iters := fs.Int("iters", 1, "with -check -collective: exchanges the run performed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// A flag the run would ignore is refused, not dropped.
	for _, f := range []struct {
		name, needs string
		applies     bool
	}{
		{"step", "-report", *report},
		{"collective", "-check", *check},
		{"workers", "-check -collective", *check && *collective != ""},
		{"iters", "-check -collective", *check && *collective != ""},
	} {
		if set[f.name] && !f.applies {
			fmt.Fprintf(stderr, "sidco-trace: -%s applies only with %s\n", f.name, f.needs)
			return 1
		}
	}
	if err := trace(stdout, *chromePath, *report, *step, *check, *collective, *workers, *iters, fs.Args()); err != nil {
		fmt.Fprintf(stderr, "sidco-trace: %v\n", err)
		return 1
	}
	return 0
}

// trace reads the streams at paths, assembles them and writes what was
// asked for to stdout.
func trace(stdout io.Writer, chromePath string, report bool, step int64, check bool, collective string, workers, iters int, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("no trace files; pass one JSONL stream per rank (see -h)")
	}
	if step < -1 {
		return fmt.Errorf("-step %d: want a step id >= 0, or -1 for every step", step)
	}
	var coll netsim.Collective
	if check && collective != "" {
		var err error
		if coll, err = netsim.ParseCollective(collective); err != nil {
			return err
		}
		if coll == netsim.CollectiveAuto {
			return fmt.Errorf("-check -collective auto: an unresolved schedule has no message count; pass ring, allgather or ps")
		}
		if workers < 1 {
			return fmt.Errorf("-check -collective needs -workers")
		}
	}
	streams := make([]*traceview.Stream, 0, len(paths))
	carried := false
	for _, p := range paths {
		s, err := traceview.ReadFile(p)
		if err != nil {
			return err
		}
		carried = carried || slices.ContainsFunc(s.Events, func(e telemetry.Event) bool { return e.Step == step })
		streams = append(streams, s)
	}
	if step >= 0 && !carried {
		return fmt.Errorf("-step %d: no event of the traces belongs to that step", step)
	}
	tl, err := traceview.Assemble(streams)
	if err != nil {
		return err
	}

	if check {
		if err := traceview.CheckComplete(tl); err != nil {
			return err
		}
		if collective != "" {
			if err := traceview.CheckMessageCount(tl, coll, workers, iters); err != nil {
				return err
			}
		}
		paired, _, _ := tl.PairStats(false)
		wirePaired, _, _ := tl.PairStats(true)
		fmt.Fprintf(stdout, "check: %d gradient + %d wire messages, every send paired with exactly one receive\n", paired, wirePaired)
	}

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := traceview.WriteChromeTrace(f, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (load in ui.perfetto.dev or chrome://tracing)\n", chromePath)
	}

	if report {
		if step >= 0 {
			// Narrow the report to one step by filtering the step list.
			tl.Steps = []int64{step}
		}
		if err := traceview.WriteReport(stdout, tl); err != nil {
			return err
		}
	}
	return nil
}
