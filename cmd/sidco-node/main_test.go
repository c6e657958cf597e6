package main

import (
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestCheckViable is the -check pre-flight's table: the runs whose
// reference cannot be bit-exact are refused, every other run — and any
// run without -check — passes untouched.
func TestCheckViable(t *testing.T) {
	base := options{compressor: "sidco-e", format: "lossless", check: true}
	for _, c := range []struct {
		name    string
		coll    netsim.Collective
		edit    func(*options)
		refused string // substring of the refusal; "" means accepted
	}{
		{"lossless all-gather", netsim.CollectiveAllGather, func(*options) {}, ""},
		{"lossless ps", netsim.CollectivePS, func(*options) {}, ""},
		{"ring, lossless", netsim.CollectiveRing, func(*options) {}, ""},
		{"int8 all-gather, pre-rounded by EC", netsim.CollectiveAllGather, func(o *options) { o.format = "pairs-i8" }, ""},
		{"lossy ps re-encodes the mean", netsim.CollectivePS, func(o *options) { o.format = "pairs" }, "re-encodes"},
		{"lossy all-gather, nothing pre-rounds", netsim.CollectiveAllGather, func(o *options) { o.format, o.compressor = "pairs", "none" }, "lossy"},
		{"auto, dense, lossy: the ring keeps its tolerance", netsim.CollectiveAuto, func(o *options) { o.format, o.compressor = "pairs", "none" }, ""},
		{"auto, compressed, lossy: an all-gather EC pre-rounds for", netsim.CollectiveAuto, func(o *options) { o.format = "pairs-f16" }, ""},
		{"lossy ps without -check", netsim.CollectivePS, func(o *options) { o.format, o.check = "pairs", false }, ""},
		{"unknown wire", netsim.CollectiveAllGather, func(o *options) { o.format = "nope" }, "nope"},
		{"resume topk", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "topk" }, ""},
		{"resume redsync", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "redsync" }, ""},
		{"resume sidco-gp", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "sidco-gp" }, ""},
		{"resume dense", netsim.CollectiveRing, func(o *options) { o.resume, o.compressor = "ck", "none" }, ""},
		{"resume dgc", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "dgc" }, "dgc"},
		{"resume randomk", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "randomk" }, "randomk"},
		{"resume gaussiank", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor = "ck", "gaussiank" }, "gaussiank"},
		{"resume dgc without -check", netsim.CollectiveAllGather, func(o *options) { o.resume, o.compressor, o.check = "ck", "dgc", false }, ""},
	} {
		opt := base
		c.edit(&opt)
		err := checkViable(opt, c.coll)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.refused != "" && err == nil:
			t.Errorf("%s: accepted, want a refusal naming %q", c.name, c.refused)
		case c.refused != "" && !strings.Contains(err.Error(), c.refused):
			t.Errorf("%s: refusal %q does not name %q", c.name, err, c.refused)
		}
	}
}

// TestLaunchRefusesUnviableCheck: the launcher consults the predicate
// before it reserves a port or spawns a child, so a -check no run could
// pass fails at once.
func TestLaunchRefusesUnviableCheck(t *testing.T) {
	for _, opt := range []options{
		{launch: 2, collective: "ps", format: "pairs", compressor: "sidco-e", iters: 30, check: true},
		{launch: 2, collective: "allgather", format: "lossless", compressor: "dgc", iters: 8, resume: "ck", check: true},
	} {
		if err := runLaunch(opt); err == nil || !strings.HasPrefix(err.Error(), "-check:") {
			t.Errorf("%+v: launch returned %v, want the -check refusal", opt, err)
		}
	}
}
