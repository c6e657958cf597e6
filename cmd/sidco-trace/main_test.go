package main

import (
	"strings"
	"testing"
)

// TestCheckCollectiveRefusals: a -check -collective that names no
// message count is refused before any trace file is read.
func TestCheckCollectiveRefusals(t *testing.T) {
	for _, c := range []struct {
		collective string
		workers    int
		refused    string
	}{
		{"auto", 4, "unresolved schedule"},
		{"nope", 4, `unknown collective "nope"`},
		{"allgather", 0, "needs -workers"},
	} {
		err := run("", false, -1, true, c.collective, c.workers, 6, []string{"missing.jsonl"})
		if err == nil || !strings.Contains(err.Error(), c.refused) {
			t.Errorf("-collective %s -workers %d: %v, want a refusal naming %q", c.collective, c.workers, err, c.refused)
		}
	}
}
