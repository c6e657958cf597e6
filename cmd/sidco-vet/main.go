// Command sidco-vet runs the repo's static-analysis suite — the five
// analyzers in internal/analysis that enforce the determinism,
// zero-alloc, lock-discipline and error-taxonomy invariants and keep
// exports nothing ships deleted — over a set of package patterns, in
// the style of a go/analysis multichecker. deadexport indexes uses
// across the whole repo (root and nested modules) whatever the
// patterns, so its findings do not depend on them.
//
// Usage:
//
//	sidco-vet [-c analyzer,...] [packages]
//
// Patterns default to ./... relative to the current directory. Each
// finding prints as
//
//	file:line:col: analyzer: message
//
// and any finding makes the process exit 1, so the CI quick gate can
// run `go run ./cmd/sidco-vet ./...` and fail the build on a
// violation. -c restricts the run to a comma-separated subset of
// analyzers (determinism, hotpath, lockcheck, errclass, deadexport).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	checks := flag.String("c", "", "comma-separated analyzers to run (default: all)")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sidco-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sidco-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sidco-vet:", err)
		os.Exit(2)
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sidco-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sidco-vet [-c analyzer,...] [packages]\n\nAnalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}
