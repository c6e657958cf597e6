package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sidcoTrace runs the command and returns its exit status, stdout and
// stderr.
func sidcoTrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCheckCollectiveRefusals: a -check -collective that names no
// message count is refused before any trace file is read.
func TestCheckCollectiveRefusals(t *testing.T) {
	for _, c := range []struct {
		collective string
		workers    string
		refused    string
	}{
		{"auto", "4", "unresolved schedule"},
		{"nope", "4", `unknown collective "nope"`},
		{"allgather", "0", "needs -workers"},
	} {
		code, _, stderr := sidcoTrace("-check", "-collective", c.collective, "-workers", c.workers, "-iters", "6", "missing.jsonl")
		if code != 1 || !strings.Contains(stderr, c.refused) {
			t.Errorf("-collective %s -workers %s: exit %d, %q; want 1 and a refusal naming %q", c.collective, c.workers, code, stderr, c.refused)
		}
	}
}

// TestRefusesIgnoredFlags: -collective, -workers and -iters do nothing
// without -check, and -step nothing without the report, so each is
// refused before any trace file is read.
func TestRefusesIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-collective", "allgather"},
		{"-workers", "4"},
		{"-iters", "6"},
		{"-iters", "1"},
		{"-check", "-workers", "4"},
		{"-report=false", "-step", "0"},
	} {
		code, _, stderr := sidcoTrace(append(args, "missing.jsonl")...)
		if code != 1 || !strings.Contains(stderr, "applies only with") || strings.Contains(stderr, "missing.jsonl") {
			t.Errorf("%v: exit %d, %q; want 1 and a refusal before reading the trace", args, code, stderr)
		}
	}
}

// TestRefusesStepNotInTrace: a -step no event of the traces belongs to
// is refused with status 1 instead of printing an empty report, while a
// step the trace carries reports.
func TestRefusesStepNotInTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.rank0")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := telemetry.NewJSONLForNode(f, 0)
	tr := telemetry.New(j)
	for step := int64(0); step < 3; step++ {
		tr.Begin(telemetry.SpanCompute, 0, -1, step).End()
		tr.Begin(telemetry.SpanStep, 0, -1, step).End()
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"99", "3", "-2"} {
		code, stdout, stderr := sidcoTrace("-step", step, path)
		if code != 1 || !strings.Contains(stderr, "-step "+step) || stdout != "" {
			t.Errorf("-step %s: exit %d, stdout %q, stderr %q; want 1, a refusal and no report", step, code, stdout, stderr)
		}
	}
	code, stdout, stderr := sidcoTrace("-step", "1", path)
	if code != 0 || !strings.Contains(stdout, "step 1") || strings.Contains(stdout, "step 0") {
		t.Errorf("-step 1: exit %d, stderr %q, report:\n%s", code, stderr, stdout)
	}
}
