package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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

func TestParseKillRank(t *testing.T) {
	for _, c := range []struct {
		spec        string
		rank, step  int
		wantRefusal bool
	}{
		{"", -1, -1, false},
		{"2@5", 2, 5, false},
		{"0@0", 0, 0, false},
		{"2", -1, -1, true},
		{"2@", -1, -1, true},
		{"@5", -1, -1, true},
		{"-1@3", -1, -1, true},
		{"1@-2", -1, -1, true},
		{"x@y", -1, -1, true},
		{"2@5x", -1, -1, true},
		{"2@5@6", -1, -1, true},
	} {
		rank, step, err := parseKillRank(c.spec)
		if (err != nil) != c.wantRefusal || rank != c.rank || step != c.step {
			t.Errorf("parseKillRank(%q) = %d, %d, %v", c.spec, rank, step, err)
		}
	}
}

func TestParseHosts(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	lines := file("hosts.txt", "h0:7000\nh1:7000\n\nh2:7000\n")
	blank := file("blank.txt", "\n \n")
	for _, c := range []struct {
		name    string
		opt     options
		want    []string
		refused string
	}{
		{"list", options{hosts: "h0:1,h1:2"}, []string{"h0:1", "h1:2"}, ""},
		{"spaces and empty entries", options{hosts: " h0:1 , ,h1:2, "}, []string{"h0:1", "h1:2"}, ""},
		{"hostfile", options{hostfile: lines}, []string{"h0:7000", "h1:7000", "h2:7000"}, ""},
		{"empty list", options{}, nil, "empty host list"},
		{"only commas", options{hosts: ", ,"}, nil, "empty host list"},
		{"blank hostfile", options{hostfile: blank}, nil, "empty host list"},
		{"both", options{hosts: "h0:1", hostfile: lines}, nil, "not both"},
		{"missing hostfile", options{hostfile: filepath.Join(dir, "nope")}, nil, "nope"},
	} {
		got, err := parseHosts(c.opt)
		switch {
		case c.refused == "" && (err != nil || !slices.Equal(got, c.want)):
			t.Errorf("%s: %v, %v; want %v", c.name, got, err, c.want)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%s: %v, %v; want a refusal naming %q", c.name, got, err, c.refused)
		}
	}
}

func TestFinalLoss(t *testing.T) {
	tricky := 0.1 + 0.2 // not 0.3: %.17g must round-trip it bit for bit
	for _, c := range []struct {
		name string
		out  string
		want float64
		ok   bool
	}{
		{"rank line", fmt.Sprintf("node 1: resumed at step 4\nnode 1: final global loss %.17g over 8 iterations\n", tricky), tricky, true},
		{"no loss line", "node 1: served 8 rounds\n", 0, false},
		{"empty output", "", 0, false},
		{"unparsable value", "node 1: final global loss x1.5 over 8 iterations\n", 0, false},
		{"first parsable line wins", "final global loss ?\nfinal global loss 2.5\nfinal global loss 3\n", 2.5, true},
	} {
		got, ok := finalLoss([]byte(c.out))
		if ok != c.ok || math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: finalLoss = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestCheckSurvivorAgreement(t *testing.T) {
	line := func(v float64) []byte { return []byte(fmt.Sprintf("final global loss %.17g over 8 iterations\n", v)) }
	loss := 1.3716933673129921
	nextUp := math.Nextafter(loss, 2)
	for _, c := range []struct {
		name              string
		killR, serverRank int
		outs              map[int][]byte
		refused           string
	}{
		{"survivors agree", 2, -1, map[int][]byte{0: line(loss), 1: line(loss), 3: line(loss)}, ""},
		{"server and victim print nothing", 1, 3, map[int][]byte{0: line(loss), 2: line(loss)}, ""},
		{"one ulp apart", 2, -1, map[int][]byte{0: line(loss), 1: line(nextUp), 3: line(loss)}, "diverged"},
		{"silent survivor", 2, -1, map[int][]byte{0: line(loss), 3: line(loss)}, "rank 1 printed no final global loss"},
	} {
		err := checkSurvivorAgreement(4, c.killR, c.serverRank, func(r int) []byte { return c.outs[r] })
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%s: %v, want a refusal naming %q", c.name, err, c.refused)
		}
	}
}

// TestPrintLossesGlobalSteps: a run that resumed at step 4 labels its
// four rows 4-7, the steps it ran, not 0-3.
func TestPrintLossesGlobalSteps(t *testing.T) {
	var out bytes.Buffer
	printLosses(&out, options{compressor: "topk", delta: 0.05}, netsim.CollectiveAllGather, []float64{1.5, 1.25, 1.125, 0.75}, 4)
	var steps []string
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) == 2 && strings.Contains(f[1], ".") {
			steps = append(steps, f[0])
		}
	}
	if want := []string{"4", "5", "6", "7"}; !slices.Equal(steps, want) {
		t.Errorf("row labels %v, want %v:\n%s", steps, want, out.String())
	}
}
