package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/netsim"
)

// TestMain lets the test binary stand in for sidco-node: the launcher
// re-executes its own binary with "-node R ..." first, and such a child
// runs the command, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-node" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// resolved parses args the way run does and resolves the deployment.
func resolved(args ...string) (*deployment, error) {
	d := newDeployment(io.Discard)
	if err := d.flags.Parse(args); err != nil {
		return nil, err
	}
	return d, d.resolve()
}

// checkpointAt writes a demo trainer's checkpoint after step steps as
// rank 0's under a fresh prefix, and returns the prefix.
func checkpointAt(t *testing.T, steps int) string {
	t.Helper()
	tr, err := harness.DemoTrainer(dist.TrainerConfig{Workers: 1, Delta: 0.05, Seed: 1}, "topk")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Run(steps); err != nil {
		t.Fatal(err)
	}
	ck, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "ck")
	if err := dist.SaveCheckpoint(rankPath(prefix, 0), ck); err != nil {
		t.Fatal(err)
	}
	return prefix
}

// TestCheckViable is the -check pre-flight's table: a bitwise resume of a
// compressor whose state the checkpoint lacks is refused, every other run —
// lossy wires under the parameter server and under a dense all-gather
// among them, and any run without -check — passes untouched.
func TestCheckViable(t *testing.T) {
	ck := checkpointAt(t, 1)
	for _, c := range []struct {
		name    string
		coll    netsim.Collective
		args    []string
		refused string // substring of the refusal; "" means accepted
	}{
		{"lossless all-gather", netsim.CollectiveAllGather, nil, ""},
		{"lossless ps", netsim.CollectivePS, nil, ""},
		{"ring, lossless", netsim.CollectiveRing, nil, ""},
		{"bf16 all-gather, pre-rounded by EC", netsim.CollectiveAllGather, []string{"-format", "pairs-bf16"}, ""},
		{"lossy ps: the reference rounds the re-encoded mean", netsim.CollectivePS, []string{"-format", "bitmap"}, ""},
		{"lossy dense all-gather: the reference rounds every input", netsim.CollectiveAllGather, []string{"-format", "bitmap", "-compressor", "none"}, ""},
		{"auto, dense, lossy: the ring encodes nothing", netsim.CollectiveAuto, []string{"-format", "bitmap", "-compressor", "none"}, "Format bitmap on the ring, which ships raw float64"},
		{"auto, compressed, lossy: an all-gather EC pre-rounds for", netsim.CollectiveAuto, []string{"-format", "bitmap"}, ""},
		{"lossy ps without -check", netsim.CollectivePS, []string{"-format", "bitmap", "-check=false"}, ""},
		{"unknown wire", netsim.CollectiveAllGather, []string{"-format", "nope"}, "nope"},
		{"resume topk", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "topk"}, ""},
		{"resume redsync", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "redsync"}, ""},
		{"resume sidco-gp", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "sidco-gp"}, ""},
		{"resume dense", netsim.CollectiveRing, []string{"-resume", ck, "-compressor", "none"}, ""},
		{"resume dgc", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "dgc"}, "dgc"},
		{"resume randomk", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "randomk"}, "randomk"},
		{"resume gaussiank", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "gaussiank"}, "gaussiank"},
		{"resume dgc without -check", netsim.CollectiveAllGather, []string{"-resume", ck, "-compressor", "dgc", "-check=false"}, ""},
		{"resume with nothing left to run", netsim.CollectiveAllGather, []string{"-resume", ck, "-iters", "1"}, "already at step 1"},
	} {
		args := append([]string{"-launch", "2", "-iters", "30", "-check", "-collective", c.coll.String()}, c.args...)
		_, err := resolved(args...)
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
// pass — the one left, a bitwise resume of dgc — fails at once.
func TestLaunchRefusesUnviableCheck(t *testing.T) {
	args := []string{"-launch", "2", "-compressor", "dgc", "-iters", "8", "-resume", "ck", "-check"}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 1 || !strings.HasPrefix(stderr.String(), "sidco-node: -check:") || stdout.Len() != 0 {
		t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 with the -check refusal and nothing launched", args, code, stdout.String(), stderr.String())
	}
}

// TestRefusedBeforeAnythingStarts: a flag every rank would trip over is
// refused by the one parse, as a node and as a launcher alike — exit 1,
// a message naming the flag, and nothing printed on stdout: no panic, no
// "launching", no deployment spawned only to fail.
func TestRefusedBeforeAnythingStarts(t *testing.T) {
	for _, c := range []struct {
		args    []string
		refused string
	}{
		{[]string{"-compressor", "nope"}, `unknown compressor "nope"`},
		{[]string{"-delta", "2"}, "Delta = 2 outside (0, 1]"},
		{[]string{"-ckpt", "ck", "-ckpt-every", "0"}, "-ckpt-every 0"},
		// The ring ships raw float64: a lossy wire there rounds and saves
		// nothing, named or as auto resolves a dense run. cluster.Config's
		// Validate refuses it.
		{[]string{"-collective", "ring", "-compressor", "topk", "-format", "bitmap"}, "cluster: Format bitmap on the ring, which ships raw float64"},
		{[]string{"-collective", "auto", "-compressor", "none", "-format", "pairs-bf16"}, "cluster: Format pairs-bf16 on the ring, which ships raw float64"},
		// The retired wire formats.
		{[]string{"-format", "pairs"}, `unknown wire format "pairs"`},
		{[]string{"-format", "dense"}, `unknown wire format "dense"`},
		{[]string{"-format", "delta-varint"}, `unknown wire format "delta-varint"`},
		{[]string{"-format", "pairs-f16"}, `unknown wire format "pairs-f16"`},
		{[]string{"-format", "pairs-i8"}, `unknown wire format "pairs-i8"`},
	} {
		for _, mode := range [][]string{{"-launch", "2"}, {"-node", "0", "-hosts", "127.0.0.1:1,127.0.0.1:2"}} {
			args := append(slices.Clone(mode), c.args...)
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != 1 || !strings.Contains(stderr.String(), c.refused) || stdout.Len() != 0 {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 naming %q", args, code, stdout.String(), stderr.String(), c.refused)
			}
		}
	}
}

// TestRunExitCodes pins the exit status contract: 0 for a finished run
// and for -h, 1 for a refusal with nothing printed on stdout, 2 for a flag
// that does not parse (the removed flags among them), 3 for a planned
// death. -kill-rank means the same to a node as to a launcher: its target
// dies on schedule, and a target outside the deployment, the parameter
// server, or a kill step the run never reaches (behind the step a -resume
// starts at, or at -iters) is a refusal in both modes. A kill at the
// resume step itself dies on schedule. The rank and worker-count refusals
// of a node are cluster.Config.Validate's.
func TestRunExitCodes(t *testing.T) {
	ck := checkpointAt(t, 4)
	node := []string{"-node", "0", "-hosts", "127.0.0.1:0", "-iters", "8", "-compressor", "topk"}
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"single-node run", []string{"-node", "0", "-hosts", "127.0.0.1:0", "-iters", "2", "-check"}, 0, ""},
		{"help", []string{"-h"}, 0, "Usage of sidco-node"},
		{"no mode", nil, 1, "pass -launch N"},
		{"retries without a step timeout", []string{"-launch", "4", "-step-retries", "2"}, 1, "sidco-node: "},
		{"removed -chunks", []string{"-launch", "4", "-chunks", "4"}, 2, "flag provided but not defined: -chunks"},
		{"removed -parallel", []string{"-launch", "4", "-parallel", "2"}, 2, "flag provided but not defined: -parallel"},
		{"removed -kill-at-step", []string{"-node", "0", "-hosts", "127.0.0.1:0", "-kill-at-step", "1"}, 2, "flag provided but not defined: -kill-at-step"},
		{"planned kill", []string{"-node", "0", "-hosts", "127.0.0.1:0", "-iters", "3", "-kill-rank", "0@1"}, killExitCode, ""},
		{"kill-rank behind the resume", []string{"-launch", "2", "-iters", "8", "-compressor", "topk", "-resume", ck, "-kill-rank", "1@2"}, 1,
			"-kill-rank step 2 outside the steps this run trains, [4, 8)"},
		{"node kill-rank behind the resume", append(slices.Clone(node), "-resume", ck, "-kill-rank", "0@2"), 1,
			"-kill-rank step 2 outside the steps this run trains, [4, 8)"},
		{"node kill-rank at -iters", append(slices.Clone(node), "-kill-rank", "0@8"), 1, "[0, 8)"},
		{"planned kill at the resume step", append(slices.Clone(node), "-resume", ck, "-kill-rank", "0@4"), killExitCode, ""},
		{"node kill-rank outside the deployment", append(slices.Clone(node), "-kill-rank", "1@2"), 1, "-kill-rank 1 outside the 1-node deployment"},
		{"node kill-rank on the parameter server", []string{"-node", "1", "-hosts", "127.0.0.1:0,127.0.0.1:0", "-collective", "ps", "-kill-rank", "1@1"}, 1,
			"-kill-rank 1 is the parameter server"},
		{"node -check under -kill-rank", append(slices.Clone(node), "-kill-rank", "0@2", "-check"), 1, "run the deployment with -launch"},
		{"node outside the host list", []string{"-node", "2", "-hosts", "127.0.0.1:0,127.0.0.1:0"}, 1, "cluster: Rank = 2 outside the 2-node deployment"},
		{"one-host ps list", []string{"-node", "0", "-hosts", "127.0.0.1:0", "-collective", "ps"}, 1, "cluster: Workers = 0, need >= 1"},
		{"-node under -launch", []string{"-launch", "2", "-node", "5", "-iters", "2"}, 1, "-node under -launch"},
		{"-hosts under -launch", []string{"-launch", "2", "-hosts", "127.0.0.1:0,127.0.0.1:0"}, 1, "-hosts under -launch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code || !strings.Contains(stderr.String(), c.stderr) || (code == 1 && stdout.Len() != 0) {
				t.Errorf("exit %d, want %d; stderr %q, want it to contain %q\nstdout:\n%s", code, c.code, stderr.String(), c.stderr, stdout.String())
			}
		})
	}
}

// TestChildArgs: a child gets every flag set on the launcher's command
// line, less the launcher's own, with the per-rank rewrites applied.
func TestChildArgs(t *testing.T) {
	addrs := []string{"h0:1", "h1:2", "h2:3"}
	d, err := resolved("-launch", "3", "-iters", "8", "-delta", "0.1", "-metrics", "auto", "-telemetry", "tr",
		"-check", "-kill-rank", "1@5", "-launch-timeout", "1m")
	if err != nil {
		t.Fatal(err)
	}
	// -kill-rank reaches every child unchanged, defaulted the step timeout
	// and retries on, and drops -check.
	shared := []string{"-delta=0.1", "-iters=8", "-kill-rank=1@5", "-metrics=127.0.0.1:0", "-step-retries=2", "-step-timeout=2s"}
	for rank := range 3 {
		want := append(append([]string{"-node", strconv.Itoa(rank), "-hosts", "h0:1,h1:2,h2:3"}, shared...), fmt.Sprintf("-telemetry=tr.rank%d", rank))
		if got := childArgs(d, rank, addrs); !slices.Equal(got, want) {
			t.Errorf("rank %d: %q\nwant %q", rank, got, want)
		}
	}
	d, err = resolved("-launch", "2", "-check", "-collective", "ps", "-compressor", "topk")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-node", "2", "-hosts", "h0:1,h1:2,h2:3", "-check=true", "-collective=ps", "-compressor=topk"}
	if got := childArgs(d, 2, addrs); !slices.Equal(got, want) {
		t.Errorf("ps server: %q\nwant %q", got, want)
	}
}

// ranks runs one deployment of n nodes in process over real loopback
// sockets: goroutine r calls run with "-node r -hosts <addrs>" and
// args(r) — the shipped rank body end to end. It returns every rank's
// exit code and output.
func ranks(t *testing.T, n int, args func(rank int) []string) ([]int, []string) {
	t.Helper()
	addrs, err := cluster.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	codes, outs := make([]int, n), make([]string, n)
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			codes[r] = run(append([]string{"-node", strconv.Itoa(r), "-hosts", strings.Join(addrs, ",")}, args(r)...), &out, &out)
			outs[r] = out.String()
		}()
	}
	wg.Wait()
	return codes, outs
}

// same gives every rank the same flags.
func same(args ...string) func(int) []string { return func(int) []string { return args } }

// TestRanksInProcess runs the shipped rank body as N goroutines over
// loopback TCP, one deployment per row: every rank must exit 0 (its
// -check passed) and rank 0 must print the row's line — the first row's
// is CI's 4-process anchor.
func TestRanksInProcess(t *testing.T) {
	tel := filepath.Join(t.TempDir(), "tr")
	for _, c := range []struct {
		name  string
		nodes int
		args  func(rank int) []string
		want  string
	}{
		{"allgather", 4, same("-check"), "node 0: final global loss 1.5272474477263176 over 6 iterations"},
		{"ps", 3, same("-collective", "ps", "-compressor", "topk", "-check"), "bit-identical to in-process"},
		{"ring", 4, same("-collective", "ring", "-compressor", "none", "-check"), "bit-identical to in-process"},
		{"pairs-bf16", 3, same("-format", "pairs-bf16", "-check"), "bit-identical to in-process"},
		{"ps bitmap", 3, same("-collective", "ps", "-compressor", "topk", "-format", "bitmap", "-check"), "bit-identical to in-process"},
		{"dense all-gather pairs-bf16", 2, same("-compressor", "none", "-format", "pairs-bf16", "-check"), "bit-identical to in-process"},
		{"metrics and telemetry", 3, func(r int) []string {
			return []string{"-metrics", "127.0.0.1:0", "-telemetry", rankPath(tel, r), "-check"}
		}, "(sparse after the selection)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			codes, outs := ranks(t, c.nodes, c.args)
			for r, code := range codes {
				if code != 0 {
					t.Errorf("rank %d exited %d:\n%s", r, code, outs[r])
				}
			}
			if !strings.Contains(outs[0], c.want) {
				t.Errorf("rank 0 did not print %q:\n%s", c.want, outs[0])
			}
		})
	}
	// The launcher's cross-rank trace check over the streams the
	// telemetry row wrote.
	d, err := resolved("-launch", "3", "-telemetry", tel, "-check")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLaunchTraces(d, io.Discard); err != nil {
		t.Error(err)
	}
}

// TestRanksResumeInProcess: four steps writing checkpoints, then a
// resume into eight whose -check holds the tail bit-identical to the
// uninterrupted in-process run.
func TestRanksResumeInProcess(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	for _, args := range [][]string{
		{"-iters", "4", "-compressor", "topk", "-ckpt", ck},
		{"-iters", "8", "-compressor", "topk", "-resume", ck, "-check"},
	} {
		codes, outs := ranks(t, 2, same(args...))
		for r, code := range codes {
			if code != 0 {
				t.Fatalf("%v: rank %d exited %d:\n%s", args, r, code, outs[r])
			}
		}
	}
}

// TestRanksKillInProcess is CI's kill-rank anchor in process: every rank
// is given -kill-rank 2@5, rank 2 dies before step 5 with the kill exit
// code, and the three survivors renegotiate and finish with bit-identical
// weights.
func TestRanksKillInProcess(t *testing.T) {
	codes, outs := ranks(t, 4, same("-iters", "8", "-kill-rank", "2@5"))
	for r, code := range codes {
		if want := map[bool]int{true: killExitCode, false: 0}[r == 2]; code != want {
			t.Errorf("rank %d exited %d, want %d:\n%s", r, code, want, outs[r])
		}
	}
	if err := checkSurvivorAgreement(io.Discard, 4, 2, func(r int) []byte { return []byte(outs[r]) }); err != nil {
		t.Fatal(err)
	}
	if want := "final global loss 1.3716933673129921 "; !strings.Contains(outs[0], want) {
		t.Errorf("rank 0 did not print %q:\n%s", want, outs[0])
	}
}

// TestLaunch runs the launcher for real; its children are this test
// binary (TestMain).
func TestLaunch(t *testing.T) {
	tel := filepath.Join(t.TempDir(), "tr")
	const gate = "kill-rank check passed: survivors agree"
	for _, c := range []struct {
		name      string
		args      []string
		want, not string
	}{
		{"check, metrics, telemetry", []string{"-launch", "2", "-check", "-metrics", "auto", "-telemetry", tel}, "launch trace check: ", gate},
		{"kill-rank", []string{"-launch", "3", "-iters", "4", "-kill-rank", "1@2", "-check"}, gate, ""},
		// Without -check the survivor gate does not run.
		{"kill-rank without -check", []string{"-launch", "3", "-iters", "4", "-kill-rank", "1@2"}, "launch: rank 1 killed at step 2, 2 survivors finished cleanly", gate},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if out := stdout.String(); code != 0 || !strings.Contains(out, c.want) || (c.not != "" && strings.Contains(out, c.not)) {
				t.Errorf("exit %d, want 0 printing %q and not %q\nstdout:\n%s\nstderr:\n%s", code, c.want, c.not, out, stderr.String())
			}
		})
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

func TestPrintedDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		out  string
		want uint64
		ok   bool
	}{
		{"rank line", "node 1: final global loss 1.5 over 8 iterations\nnode 1: weights digest 8f3a0000000000c1\n", 0x8f3a0000000000c1, true},
		{"no digest line", "node 1: served 8 rounds\n", 0, false},
		{"empty output", "", 0, false},
		{"unparsable value", "node 1: weights digest x1\n", 0, false},
		{"wider than 64 bits", "node 1: weights digest 10000000000000000\n", 0, false},
		{"first parsable line wins", "weights digest ?\nweights digest 2a\nweights digest 3\n", 0x2a, true},
	} {
		got, ok := printedDigest([]byte(c.out))
		if ok != c.ok || got != c.want {
			t.Errorf("%s: printedDigest = %x, %v; want %x, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestCheckSurvivorAgreement: the kill gate compares the survivors'
// weights, not their global losses, which every survivor reduces from the
// same gathered scalars and so shares even when the weights split.
func TestCheckSurvivorAgreement(t *testing.T) {
	out := func(digest uint64) []byte {
		return []byte(fmt.Sprintf("node 0: final global loss 1.3716933673129921 over 8 iterations\nnode 0: weights digest %016x\n", digest))
	}
	const digest = 0x9e3779b97f4a7c15
	for _, c := range []struct {
		name           string
		workers, killR int
		outs           map[int][]byte
		refused        string
	}{
		{"survivors agree", 4, 2, map[int][]byte{0: out(digest), 1: out(digest), 3: out(digest)}, ""},
		{"server and victim print nothing", 3, 1, map[int][]byte{0: out(digest), 2: out(digest)}, ""},
		{"equal losses, weights one bit apart", 4, 2, map[int][]byte{0: out(digest), 1: out(digest ^ 1), 3: out(digest)}, "diverged"},
		{"silent survivor", 4, 2, map[int][]byte{0: out(digest), 3: out(digest)}, "rank 1 printed no weights digest"},
		{"loss but no digest", 4, 2, map[int][]byte{0: out(digest), 1: []byte("node 1: final global loss 1.5 over 8 iterations\n"), 3: out(digest)}, "rank 1 printed no weights digest"},
	} {
		err := checkSurvivorAgreement(io.Discard, c.workers, c.killR, func(r int) []byte { return c.outs[r] })
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
	d := &deployment{options: options{compressor: "topk", delta: 0.05}, coll: netsim.CollectiveAllGather, start: 4}
	printLosses(&out, d, []float64{1.5, 1.25, 1.125, 0.75})
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
