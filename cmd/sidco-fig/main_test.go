package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestEveryOldFigureNameResolves walks every -fig value sidco-train,
// sidco-fit and sidco-micro accepted and the iteration count each ran at
// when -iters was left alone.
func TestEveryOldFigureNameResolves(t *testing.T) {
	figs := figures(1000)
	for name, iters := range map[string]int{
		"table1": 100, "3": 100, "4": 100, "5": 100, "6": 100, "9": 100, "10": 100, "11": 100, "13": 100, "18": 100, // sidco-train
		"2": 200, "7": 200, "8": 200, "ablations": 200, // sidco-fit
		"1": 100, "12": 100, "14": 100, "15": 100, "16": 100, "17": 100, "wallclock": 100, // sidco-micro
	} {
		f, ok := lookup(figs, name)
		if !ok {
			t.Errorf("-fig %s does not resolve", name)
			continue
		}
		if f.iters != iters {
			t.Errorf("-fig %s defaults to %d iterations, want %d", name, f.iters, iters)
		}
	}
	for alias, primary := range aliases {
		if f, _ := lookup(figs, alias); f.name != primary {
			t.Errorf("-fig %s resolves to %q, want %q", alias, f.name, primary)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	var catalog bytes.Buffer
	harness.Table1Catalog(&catalog)
	for _, c := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string
	}{
		{"unknown figure", []string{"-fig", "nope"}, 2, "", "sidco-fig: unknown -fig \"nope\"\n"},
		{"list", []string{"-list"}, 0, catalog.String(), ""},
		{"table1", []string{"-fig", "table1"}, 0, catalog.String(), ""},
		{"alias", []string{"-fig", "15"}, 0, "Fig 14/15", ""},
		{"unknown flag", []string{"-json"}, 2, "", "flag provided but not defined: -json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(c.args, &out, &errOut); code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if !strings.Contains(out.String(), c.out) || (c.out == "" && out.Len() != 0) {
				t.Errorf("stdout = %q, want it to contain %q", out.String(), c.out)
			}
			if !strings.Contains(errOut.String(), c.errOut) || (c.errOut == "" && errOut.Len() != 0) {
				t.Errorf("stderr = %q, want it to contain %q", errOut.String(), c.errOut)
			}
		})
	}
}
