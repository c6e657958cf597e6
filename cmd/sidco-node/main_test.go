package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
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

// TestCheckViable is the -check pre-flight's table: the runs whose
// reference cannot be bit-exact are refused, every other run — and any
// run without -check — passes untouched.
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
		{"lossy ps re-encodes the mean", netsim.CollectivePS, []string{"-format", "bitmap"}, "re-encodes"},
		{"lossy all-gather, nothing pre-rounds", netsim.CollectiveAllGather, []string{"-format", "bitmap", "-compressor", "none"}, "lossy"},
		{"auto, dense, lossy: the ring keeps its tolerance", netsim.CollectiveAuto, []string{"-format", "bitmap", "-compressor", "none"}, ""},
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
// pass fails at once.
func TestLaunchRefusesUnviableCheck(t *testing.T) {
	for _, args := range [][]string{
		{"-launch", "2", "-collective", "ps", "-format", "bitmap", "-iters", "30", "-check"},
		{"-launch", "2", "-compressor", "dgc", "-iters", "8", "-resume", "ck", "-check"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 1 || !strings.HasPrefix(stderr.String(), "sidco-node: -check:") || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 with the -check refusal and nothing launched", args, code, stdout.String(), stderr.String())
		}
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
// and for -h, 1 for a refusal, 2 for a flag that does not parse (the
// removed execution-mode flags among them), 3 for a planned death.
func TestRunExitCodes(t *testing.T) {
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
		{"kill-at-step under -launch", []string{"-launch", "2", "-kill-at-step", "1"}, 1, "-kill-rank R@K"},
		{"removed -chunks", []string{"-launch", "4", "-chunks", "4"}, 2, "flag provided but not defined: -chunks"},
		{"removed -parallel", []string{"-launch", "4", "-parallel", "2"}, 2, "flag provided but not defined: -parallel"},
		{"planned kill", []string{"-node", "0", "-hosts", "127.0.0.1:0", "-kill-at-step", "1"}, killExitCode, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.stderr) {
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
	// -kill-rank defaulted the step timeout and retries on, and drops -check.
	shared := []string{"-delta=0.1", "-iters=8", "-metrics=127.0.0.1:0", "-step-retries=2", "-step-timeout=2s"}
	for _, c := range []struct {
		rank int
		want []string
	}{
		{0, append(append([]string{"-node", "0", "-hosts", "h0:1,h1:2,h2:3"}, shared...), "-telemetry=tr.rank0")},
		{1, append(append([]string{"-node", "1", "-hosts", "h0:1,h1:2,h2:3"}, shared...), "-telemetry=tr.rank1", "-kill-at-step", "5")},
	} {
		if got := childArgs(d, c.rank, addrs); !slices.Equal(got, c.want) {
			t.Errorf("rank %d: %q\nwant %q", c.rank, got, c.want)
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
		{"ring", 3, same("-collective", "ring", "-compressor", "none", "-check"), "within ring tolerance of in-process"},
		{"pairs-bf16", 3, same("-format", "pairs-bf16", "-check"), "bit-identical to in-process"},
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

// TestRanksKillInProcess is CI's kill-rank anchor in process: rank 2
// dies before step 5 with the kill exit code, and the three survivors
// renegotiate and agree bit for bit on the final loss.
func TestRanksKillInProcess(t *testing.T) {
	codes, outs := ranks(t, 4, func(r int) []string {
		args := []string{"-iters", "8", "-step-timeout", "2s", "-step-retries", "2"}
		if r == 2 {
			args = append(args, "-kill-at-step", "5")
		}
		return args
	})
	for r, code := range codes {
		if want := map[bool]int{true: killExitCode, false: 0}[r == 2]; code != want {
			t.Errorf("rank %d exited %d, want %d:\n%s", r, code, want, outs[r])
		}
	}
	if err := checkSurvivorAgreement(io.Discard, 4, 2, -1, func(r int) []byte { return []byte(outs[r]) }); err != nil {
		t.Fatal(err)
	}
	if got, _ := finalLoss([]byte(outs[0])); got != 1.3716933673129921 {
		t.Errorf("survivors finished at %.17g, want 1.3716933673129921", got)
	}
}

// TestLaunch runs the launcher for real; its children are this test
// binary (TestMain).
func TestLaunch(t *testing.T) {
	tel := filepath.Join(t.TempDir(), "tr")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"check, metrics, telemetry", []string{"-launch", "2", "-check", "-metrics", "auto", "-telemetry", tel}, "launch trace check: "},
		{"kill-rank", []string{"-launch", "3", "-iters", "4", "-kill-rank", "1@2", "-check"}, "launch: rank 1 killed at step 2, 2 survivors finished cleanly"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), c.want) {
				t.Errorf("exit %d, want 0 printing %q\nstdout:\n%s\nstderr:\n%s", code, c.want, stdout.String(), stderr.String())
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
		err := checkSurvivorAgreement(io.Discard, 4, c.killR, c.serverRank, func(r int) []byte { return c.outs[r] })
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
