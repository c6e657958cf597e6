// Command sidco-fig regenerates the paper's tables and figures: the
// distributed-training evaluation on the iteration model (Table 1,
// Figures 3, 5, 6, 9-11, 13, 18 and the collective topology study), the
// gradient-statistics studies on live training (Figures 2, 4, 7, 8 and
// the ablation suite), the micro-benchmarks (Figures 1, 12, 14-17 plus a
// real Go wall-clock measurement on this machine) and the cluster
// engine's measured exchanges (traffic and scenario tables, and the
// bit-identity run in process, over channels and over loopback TCP).
//
// Usage:
//
//	sidco-fig -list               # print the Table 1 catalog
//	sidco-fig -fig 3              # RNN benchmarks (PTB, AN4)
//	sidco-fig -fig 2              # SID fits, no EC
//	sidco-fig -fig ablations      # all ablation tables
//	sidco-fig -fig 14             # per-model latency/speedup (also 15)
//	sidco-fig -fig wallclock -dim 200000
//	sidco-fig -fig topology       # comm time per collective, modelled
//	sidco-fig -fig collectives    # measured traffic vs netsim, scenario knobs
//	sidco-fig -fig loopback       # losses in process vs channels vs TCP
//	sidco-fig -fig all
//
// -iters 0 (the default) runs each figure at its own default: 200
// training iterations for 2, 7, 8 and the ablations, 30 for topology, 6
// for loopback, 100 otherwise. -dim and -scale below 1 and a negative
// -iters are refused before any figure runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
)

// figure is one row of the CLI's table: -fig all runs the rows in order.
type figure struct {
	name  string
	iters int // what -iters 0 means for this figure
	run   func(io.Writer, harness.Options) error
}

// aliases are the second numbers of figures that share one study.
var aliases = map[string]string{"15": "14", "17": "16"}

// figures is the ordered table; dim is the -fig wallclock dimension.
func figures(dim int) []figure {
	return []figure{
		{"table1", 100, func(w io.Writer, _ harness.Options) error { harness.Table1Catalog(w); return nil }},
		{"1", 100, harness.Fig1},
		{"2", 200, harness.Fig2},
		{"3", 100, harness.Fig3},
		{"4", 100, harness.Fig4},
		{"5", 100, harness.Fig5},
		{"6", 100, harness.Fig6},
		{"7", 200, harness.Fig7},
		{"8", 200, harness.Fig8},
		{"9", 100, harness.Fig9},
		{"10", 100, harness.Fig10},
		{"11", 100, harness.Fig11},
		{"12", 100, harness.Fig12},
		{"13", 100, harness.Fig13},
		{"14", 100, harness.Fig14And15},
		{"16", 100, harness.Fig16And17},
		{"18", 100, harness.Fig18},
		{"ablations", 200, ablations},
		{"wallclock", 100, func(w io.Writer, opt harness.Options) error {
			return harness.GoWallClock(w, dim, 0.001, 3, opt.Seed)
		}},
		{"topology", 30, harness.TopologyStudy},
		{"collectives", 100, harness.CollectiveStudy},
		{"loopback", 6, harness.LoopbackStudy},
	}
}

func ablations(w io.Writer, opt harness.Options) error {
	for _, f := range []func(io.Writer, harness.Options) error{
		harness.AblationStages, harness.AblationDelta1, harness.AblationAdapt,
		harness.AblationSID, harness.AblationGammaApprox, harness.AblationEC,
	} {
		if err := f(w, opt); err != nil {
			return err
		}
	}
	return nil
}

// lookup resolves a -fig value to its table row.
func lookup(figs []figure, name string) (figure, bool) {
	if primary, ok := aliases[name]; ok {
		name = primary
	}
	for _, f := range figs {
		if f.name == name {
			return f, true
		}
	}
	return figure{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sidco-fig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure: 1-18, table1, ablations, wallclock, topology, collectives, loopback, all")
	list := fs.Bool("list", false, "print the Table 1 workload catalog and exit")
	iters := fs.Int("iters", 0, "iterations per run (0: the figure's own default)")
	scale := fs.Int("scale", 100, "dimension divisor for statistical streams")
	seed := fs.Int64("seed", 1, "random seed")
	dim := fs.Int("dim", 2_000_000, "dimension for -fig wallclock")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, c := range []struct {
		name   string
		v, min int
	}{{"iters", *iters, 0}, {"scale", *scale, 1}, {"dim", *dim, 1}} {
		if c.v < c.min {
			fmt.Fprintf(stderr, "sidco-fig: -%s %d: must be at least %d\n", c.name, c.v, c.min)
			return 2
		}
	}
	if *list {
		harness.Table1Catalog(stdout)
		return 0
	}
	figs := figures(*dim)
	if *fig != "all" {
		f, ok := lookup(figs, *fig)
		if !ok {
			fmt.Fprintf(stderr, "sidco-fig: unknown -fig %q\n", *fig)
			return 2
		}
		figs = []figure{f}
	}
	for _, f := range figs {
		opt := harness.Options{Iters: *iters, SimScale: *scale, Seed: *seed}
		if opt.Iters == 0 {
			opt.Iters = f.iters
		}
		if err := f.run(stdout, opt); err != nil {
			fmt.Fprintf(stderr, "sidco-fig: fig %s: %v\n", f.name, err)
			return 1
		}
	}
	return 0
}
