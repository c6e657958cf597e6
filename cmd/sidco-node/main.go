// Command sidco-node runs ONE cluster node as an OS process: the
// multi-process deployment of the message-passing collective layer.
// Every process gets the same host list and its own rank; rank r trains
// global worker r through a Workers=1 dist.Trainer whose gradient
// exchange is a cluster.Node over a TCPTransport, so the ring all-reduce
// / all-gather / parameter-server schedules execute over real sockets.
// Over the lossless wire format
// the deployment reproduces the single-process in-process trainer's
// global loss sequence bit-for-bit, which -check asserts per process —
// and over the lossy all-gather wires (-format bitmap, pairs-bf16) too,
// because error feedback pre-rounds every selected value to wire
// precision before it ships.
//
// Host list: a comma-separated -hosts value or a -hostfile with one
// host:port per line; entry i is node i's listen address. Under
// -collective ps the last entry is the parameter-server node (workers =
// len(hosts)-1), which runs the serving loop instead of training.
//
// Usage:
//
//	sidco-node -launch 4 -check             # quickstart: 4 worker processes over loopback, bit-identity gated
//	sidco-node -launch 4 -collective ps -compressor topk
//	sidco-node -node 0 -hosts host0:7000,host1:7000,host2:7000 -iters 8
//	sidco-node -node 2 -hostfile hosts.txt -collective allgather -check
//	sidco-node -launch 4 -format pairs-bf16 -check  # bfloat16 wire (4x fewer value bytes), still bit-gated via EC pre-rounding
//	sidco-node -launch 4 -metrics auto -check   # + per-process /metrics endpoints, scrape-verified
//
// -launch spawns the whole deployment on this machine (kernel-assigned
// loopback ports) and exits non-zero if any process fails its checks —
// the CI quick gate runs exactly that. Every child gets the flags the
// launcher was given, less the launcher's own.
//
// Observability: -metrics ADDR serves this process's live telemetry
// over HTTP (/metrics in Prometheus plaintext, /healthz, /debug/pprof;
// ADDR "auto" binds a kernel-assigned loopback port and prints it), and
// -telemetry FILE streams every span and counter event as JSONL. With
// both -metrics and -check, the process scrapes its own endpoint over
// real HTTP after the run and asserts the exported byte/message
// counters equal the Instrumented totals and the collective's netsim
// message formula — the exporter is gated end to end, not just the
// in-memory counters. Under -launch both flags are forwarded to every
// child (-telemetry FILE becomes FILE.rankR per process).
//
// Exit status: 0 for a finished run (and -h), 1 for a refused or failed
// one, 2 for a flag that does not parse, 3 for the planned death of a
// -kill-at-step node.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// options are the flags as given.
type options struct {
	node          int
	hosts         string
	hostfile      string
	launch        int
	collective    string
	iters         int
	compressor    string
	delta         float64
	seed          int64
	format        string
	check         bool
	metrics       string
	telemetryPath string
	dialTimeout   time.Duration
	launchTimeout time.Duration
	stepTimeout   time.Duration
	stepRetries   int
	killAtStep    int
	killRank      string
	ckpt          string
	ckptEvery     int
	resume        string
}

// deployment is the run the flags describe, parsed and checked once by
// resolve: the viability check, the trainers, the cluster configuration,
// the node's self-check and the launcher's trace check all read it and
// parse nothing themselves.
type deployment struct {
	options
	flags      *flag.FlagSet // bound to options; the launcher forwards what was set
	coll       netsim.Collective
	resolved   netsim.Collective // coll with auto resolved on compressed
	wire       cluster.Wire
	compressed bool     // a compressor is on, which is what auto resolves on
	addrs      []string // node mode: the host list
	workers    int      // training workers: -launch, or the host list less the ps server
	nodes      int      // transport size: workers plus the ps server
	killR      int      // -kill-rank's target rank, -1 without
	killStep   int
	resumed    *dist.Checkpoint // the checkpoint -resume starts from, nil without
	start      int              // its step, 0 without -resume
}

// killExitCode is the exit status of a process that self-killed on its
// -kill-at-step schedule: the launcher distinguishes the planned death
// of the fault-injection target from a genuine child failure by it.
const killExitCode = 3

// errKilled is what a node returns when it dies on its -kill-at-step
// schedule; run turns it into killExitCode.
var errKilled = errors.New("fault injection: died on schedule")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	d := newDeployment(stderr)
	if err := d.flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := d.resolve()
	if err == nil && d.launch > 0 {
		err = runLaunch(d, stdout, stderr)
	} else if err == nil {
		err = runNode(d, stdout)
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errKilled):
		return killExitCode
	}
	fmt.Fprintf(stderr, "sidco-node: %v\n", err)
	return 1
}

// newDeployment returns a deployment whose flag set is bound to its
// options, printing usage and parse errors to stderr.
func newDeployment(stderr io.Writer) *deployment {
	d := &deployment{killR: -1}
	fs := flag.NewFlagSet("sidco-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&d.node, "node", -1, "this process's rank in the host list (0-based)")
	fs.StringVar(&d.hosts, "hosts", "", "comma-separated host:port list, entry i = node i")
	fs.StringVar(&d.hostfile, "hostfile", "", "file with one host:port per line (alternative to -hosts)")
	fs.IntVar(&d.launch, "launch", 0, "spawn this many worker processes over loopback instead of being one node")
	fs.StringVar(&d.collective, "collective", "allgather", "collective schedule: auto, ring, allgather or ps")
	fs.IntVar(&d.iters, "iters", 6, "training iterations")
	fs.StringVar(&d.compressor, "compressor", "sidco-e", "registry compressor (none: dense training)")
	fs.Float64Var(&d.delta, "delta", 0.05, "compression ratio k/d")
	fs.Int64Var(&d.seed, "seed", 1, "random seed")
	fs.StringVar(&d.format, "format", "lossless", "gradient wire format: lossless (float64 pairs), bitmap (float32) or pairs-bf16 (lossy wires pair with error feedback, which absorbs the rounding residual)")
	fs.BoolVar(&d.check, "check", false, "verify global losses bit-identical to the in-process trainer and per-node traffic against the collective formulas")
	fs.StringVar(&d.metrics, "metrics", "", "serve /metrics, /healthz and /debug/pprof on this address (\"auto\": kernel-assigned loopback port)")
	fs.StringVar(&d.telemetryPath, "telemetry", "", "stream telemetry events as JSONL to this file (per-rank suffix under -launch)")
	fs.DurationVar(&d.dialTimeout, "dial-timeout", 10*time.Second, "per-link lazy-dial retry budget (peers may start later)")
	fs.DurationVar(&d.launchTimeout, "launch-timeout", 2*time.Minute, "watchdog for -launch: kill the deployment and fail if it has not finished by then")
	fs.DurationVar(&d.stepTimeout, "step-timeout", 0, "per-collective-step receive budget; 0 blocks forever. Fault-tolerant runs need it to detect dead peers")
	fs.IntVar(&d.stepRetries, "step-retries", 0, "elastic recovery: retry a failed step this many times over the renegotiated survivor group (needs -step-timeout > 0)")
	fs.IntVar(&d.killAtStep, "kill-at-step", -1, fmt.Sprintf("fault injection: exit with code %d immediately before this step's exchange", killExitCode))
	fs.StringVar(&d.killRank, "kill-rank", "", "launch mode, R@K: forward -kill-at-step K to rank R and gate on the survivors finishing with identical final losses")
	fs.StringVar(&d.ckpt, "ckpt", "", "write this rank's resume state to PREFIX.rankR (atomic replace) every -ckpt-every steps and after the final step")
	fs.IntVar(&d.ckptEvery, "ckpt-every", 1, "checkpoint cadence in steps for -ckpt")
	fs.StringVar(&d.resume, "resume", "", "resume from PREFIX.rankR written by -ckpt; -iters stays the TOTAL step count, the process runs the remaining steps. Bit-identical resume needs a compressor whose only cross-step state is the EC residual (topk, redsync, none, sidco-*; not dgc, randomk or gaussiank, which -check therefore refuses)")
	d.flags = fs
	return d
}

// resolve parses and checks the flags once and refuses, before a port is
// reserved, a socket dialled or a child spawned, every run that cannot
// work: an unknown collective, wire or compressor, a ratio the trainer
// rejects, a checkpoint cadence below 1, a host list or kill target that
// does not fit, a -check no run could pass (checkViable), a resume with
// nothing left to run, and a cluster configuration cluster.Config.Validate
// refuses.
func (d *deployment) resolve() error {
	if d.launch <= 0 && d.node < 0 {
		return fmt.Errorf("pass -launch N for a loopback deployment, or -node R -hosts ... to be one node (see -h)")
	}
	if d.iters < 1 {
		return fmt.Errorf("-iters %d, need >= 1", d.iters)
	}
	if d.ckptEvery < 1 {
		return fmt.Errorf("-ckpt-every %d, need >= 1", d.ckptEvery)
	}
	var err error
	if d.coll, err = netsim.ParseCollective(d.collective); err != nil {
		return err
	}
	if d.wire, err = cluster.ParseWire(d.format); err != nil {
		return err
	}
	d.compressed = d.compressor != "" && d.compressor != "none"
	d.resolved = d.coll.Resolve(d.compressed)
	// Whatever every rank's trainer would refuse — an unknown compressor,
	// a ratio outside (0, 1] — one trainer built here refuses first.
	if _, err := trainerFor(d, 1, 0, nil, nil); err != nil {
		return err
	}
	if d.launch > 0 {
		err = d.sizeLaunch()
	} else {
		err = d.sizeNode()
	}
	if err != nil {
		return err
	}
	// Under -kill-rank the children run without -check (membership
	// shrinks mid-run); the launcher gates on survivor agreement instead.
	if d.killR < 0 {
		if err := checkViable(d); err != nil {
			return err
		}
	}
	if err := d.loadResume(); err != nil {
		return err
	}
	return clusterConfig(d).Validate()
}

// sizeLaunch sizes a -launch deployment and checks its kill target.
func (d *deployment) sizeLaunch() error {
	d.workers = d.launch
	d.nodes = cluster.NodeCount(d.workers, d.coll)
	if d.killAtStep >= 0 {
		return fmt.Errorf("-kill-at-step is one node's flag; under -launch pass -kill-rank R@K")
	}
	var err error
	if d.killR, d.killStep, err = parseKillRank(d.killRank); err != nil || d.killR < 0 {
		return err
	}
	if d.killR >= d.nodes {
		return fmt.Errorf("-kill-rank %d outside the %d-node deployment", d.killR, d.nodes)
	}
	if d.coll == netsim.CollectivePS && d.killR == d.nodes-1 {
		return fmt.Errorf("-kill-rank %d is the parameter server; losing it is unrecoverable by design — kill a worker rank", d.killR)
	}
	if d.killStep >= d.iters {
		return fmt.Errorf("-kill-rank step %d >= -iters %d: the target would never die", d.killStep, d.iters)
	}
	// Fault injection needs failure detection and recovery budget;
	// default both on so the quickstart gate works out of the box. Set
	// through the flag set, so the children get them too; the constant
	// values always parse.
	if d.stepTimeout <= 0 {
		_ = d.flags.Set("step-timeout", "2s")
	}
	if d.stepRetries == 0 {
		_ = d.flags.Set("step-retries", "2")
	}
	return nil
}

// sizeNode reads the host list and places this node in it.
func (d *deployment) sizeNode() error {
	var err error
	if d.addrs, err = parseHosts(d.options); err != nil {
		return err
	}
	d.nodes, d.workers = len(d.addrs), len(d.addrs)
	if d.coll == netsim.CollectivePS {
		if d.workers--; d.workers < 1 {
			return fmt.Errorf("ps needs at least 2 hosts (workers + server), got %d", len(d.addrs))
		}
	}
	if d.node >= len(d.addrs) {
		return fmt.Errorf("-node %d outside the %d-host list", d.node, len(d.addrs))
	}
	return nil
}

// loadResume reads the checkpoint a -resume run starts from: a worker
// node's own, which it restores; rank 0's for the stateless server and
// the launcher, which only need its step (same filesystem under -launch;
// multi-host operators adjust -iters instead). The launcher reads it
// before any child runs: a -ckpt on the same prefix rewrites it as they
// go.
func (d *deployment) loadResume() error {
	if d.resume == "" {
		return nil
	}
	rank := 0
	if d.launch == 0 && d.node < d.workers {
		rank = d.node
	}
	ck, err := dist.LoadCheckpoint(rankPath(d.resume, rank))
	if err != nil {
		return fmt.Errorf("-resume: %w", err)
	}
	if ck.Step >= d.iters {
		return fmt.Errorf("-resume: checkpoint already at step %d, -iters %d (total) leaves nothing to run", ck.Step, d.iters)
	}
	d.resumed, d.start = ck, ck.Step
	return nil
}

// rankPath is rank's file under a per-rank prefix (-ckpt, -resume,
// -telemetry under -launch).
func rankPath(prefix string, rank int) string { return fmt.Sprintf("%s.rank%d", prefix, rank) }

// parseHosts reads the host list of -hosts or -hostfile: entries split on
// commas and white space, so a hostfile has one per line.
func parseHosts(opt options) ([]string, error) {
	if opt.hosts != "" && opt.hostfile != "" {
		return nil, fmt.Errorf("pass -hosts or -hostfile, not both")
	}
	raw := opt.hosts
	if opt.hostfile != "" {
		data, err := os.ReadFile(opt.hostfile)
		if err != nil {
			return nil, err
		}
		raw = string(data)
	}
	hosts := strings.FieldsFunc(raw, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(hosts) == 0 {
		return nil, fmt.Errorf("empty host list")
	}
	return hosts, nil
}

// nodeTelemetry is one process's observability stack: the tracer fans
// events into an aggregator (scraped over HTTP when -metrics is set)
// and an optional JSONL stream.
type nodeTelemetry struct {
	tracer *telemetry.Tracer
	jsonl  *telemetry.JSONL
	file   *os.File
	srv    *http.Server
	addr   string // bound metrics address, "" when -metrics is off
}

// setupTelemetry builds the stack for the flags; with neither flag set
// it returns a disabled stack (nil tracer — the zero-cost path).
func setupTelemetry(d *deployment, stdout io.Writer) (*nodeTelemetry, error) {
	nt := &nodeTelemetry{}
	if d.metrics == "" && d.telemetryPath == "" {
		return nt, nil
	}
	agg := telemetry.NewAggregator()
	sinks := []telemetry.Sink{agg}
	if d.telemetryPath != "" {
		f, err := os.Create(d.telemetryPath)
		if err != nil {
			return nil, fmt.Errorf("-telemetry: %w", err)
		}
		nt.file = f
		// The per-rank node id in the stream's meta record is what lets
		// sidco-trace match message sides to streams when it aligns the
		// ranks' clocks.
		nt.jsonl = telemetry.NewJSONLForNode(f, d.node)
		sinks = append(sinks, nt.jsonl)
	}
	nt.tracer = telemetry.New(sinks...)
	if d.metrics != "" {
		addr := d.metrics
		if addr == "auto" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			nt.close()
			return nil, fmt.Errorf("-metrics %s: %w", d.metrics, err)
		}
		nt.addr = ln.Addr().String()
		nt.srv = &http.Server{Handler: telemetry.Handler(agg)}
		go nt.srv.Serve(ln)
		fmt.Fprintf(stdout, "node %d: metrics on http://%s/metrics\n", d.node, nt.addr)
	}
	return nt, nil
}

// close flushes the JSONL stream and stops the metrics server.
func (nt *nodeTelemetry) close() {
	if nt.srv != nil {
		nt.srv.Close()
	}
	if nt.jsonl != nil {
		nt.jsonl.Flush()
	}
	if nt.file != nil {
		nt.file.Close()
	}
}

// trainerFor builds the demo workload (harness.DemoTrainer: the same
// model and batch stream as the loopback study) at any (workers,
// firstWorker) split, so N single-worker processes draw exactly the
// batches of one N-worker in-process trainer. tel is nil for the
// telemetry-free reference run.
//
// With a lossy -format and a compressor, both the deployment trainer and
// the -check reference trainer pre-round every selected value to the
// wire's precision through error feedback (TrainerConfig.ECWire): the
// quantization residual feeds back into the next step, and — because the
// emitted values are fixed points of the wire's rounding — what the
// sockets deliver is exactly what the in-process reference computes.
func trainerFor(d *deployment, workers, firstWorker int, ex dist.GradientExchange, tel *telemetry.Tracer) (*dist.Trainer, error) {
	var ecWire *encoding.Format
	if d.compressed && d.wire != cluster.WireLossless {
		f, err := d.wire.Format()
		if err != nil {
			return nil, err
		}
		ecWire = &f
	}
	return harness.DemoTrainer(dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: firstWorker,
		Delta:       d.delta,
		ECWire:      ecWire,
		Seed:        d.seed,
		Exchange:    ex,
		Telemetry:   tel,
	}, d.compressor)
}

// clusterConfig is the deployment's cluster configuration as the flags
// give it: what resolve validates before anything starts, and what every
// rank binds to its own transport.
func clusterConfig(d *deployment) cluster.Config {
	return cluster.Config{
		Workers:        d.workers,
		Collective:     d.coll,
		Format:         d.wire,
		StepTimeout:    d.stepTimeout,
		MaxStepRetries: d.stepRetries,
	}
}

// runNode is one process of the deployment: worker or parameter server.
func runNode(d *deployment, stdout io.Writer) error {
	nt, err := setupTelemetry(d, stdout)
	if err != nil {
		return err
	}
	defer nt.close()
	tp, err := cluster.NewTCPTransport(cluster.TCPConfig{
		Addrs:       d.addrs,
		Local:       []int{d.node},
		DialTimeout: d.dialTimeout,
		Telemetry:   nt.tracer,
	})
	if err != nil {
		return err
	}
	defer tp.Close()
	cfg := clusterConfig(d)
	cfg.Rank, cfg.Transport, cfg.Telemetry = d.node, tp, nt.tracer
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		return err
	}
	if d.node == d.workers { // parameter-server rank
		// The server is stateless; it only needs the step the workers
		// resume at.
		if err := nd.Serve(d.start, d.iters-d.start); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "node %d (server): served %d rounds\n", d.node, d.iters-d.start)
		return nil
	}
	tr, err := trainerFor(d, 1, d.node, nd, nt.tracer)
	if err != nil {
		return err
	}
	if d.resumed != nil {
		if err := tr.Restore(d.resumed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "node %d: resumed at step %d\n", d.node, d.start)
	}
	losses := make([]float64, 0, d.iters-d.start)
	for it := d.start; it < d.iters; it++ {
		if it == d.killAtStep {
			// Die at the START of step it: step it-1 fully completed, nothing
			// of step it sent yet — the deterministic point the fault-injection
			// schedule and the elastic-recovery tests are defined against.
			fmt.Fprintf(stdout, "node %d: fault injection — dying before step %d\n", d.node, it)
			return errKilled
		}
		local, err := tr.Step()
		if err != nil {
			return err
		}
		global, err := nd.MeanScalar(local)
		if err != nil {
			return err
		}
		losses = append(losses, global)
		if d.ckpt != "" && ((it+1)%d.ckptEvery == 0 || it+1 == d.iters) {
			ck, err := tr.Checkpoint()
			if err != nil {
				return err
			}
			if err := dist.SaveCheckpoint(rankPath(d.ckpt, d.node), ck); err != nil {
				return err
			}
		}
	}
	if d.node == 0 {
		printLosses(stdout, d, losses)
	}
	fmt.Fprintf(stdout, "node %d: final global loss %.17g over %d iterations\n", d.node, losses[len(losses)-1], d.iters)
	if d.check {
		return checkNodeRun(d, nd, nt, losses, stdout)
	}
	return nil
}

// printLosses renders rank 0's view of the run: losses[i] is global step
// d.start+i, so a resumed run's rows carry the steps it actually ran.
func printLosses(w io.Writer, d *deployment, losses []float64) {
	tbl := harness.NewTable(
		fmt.Sprintf("Multi-process run — %s over TCP, %s, N from host list, delta=%g: global loss per iteration",
			d.coll, d.compressor, d.delta),
		"iter", "global loss")
	for i, l := range losses {
		tbl.AddRow(fmt.Sprintf("%d", d.start+i), fmt.Sprintf("%.17g", l))
	}
	tbl.Render(w)
}

// resumeNotBitwise names the compressors that carry state across steps
// besides the error-feedback residual — dgc and randomk an RNG stream
// position, gaussiank its correction factor — which dist.Checkpoint does
// not capture: resumed, they train on, but not bit for bit.
var resumeNotBitwise = map[string]bool{"dgc": true, "randomk": true, "gaussiank": true}

// checkViable refuses a -check that cannot pass, before anything trains:
// resolve calls it in the launcher before a child spawns and in every
// node before its first step, so an impossible gate costs nothing
// instead of a whole run. It says nothing without -check.
func checkViable(d *deployment) error {
	if !d.check {
		return nil
	}
	// The all-gather replays each worker's selection verbatim, and under a
	// lossy wire with a compressor on, error feedback has pre-rounded it to
	// a fixed point of the wire's rounding, so the sockets deliver exactly
	// what the reference computes. The parameter server re-encodes the
	// aggregated mean on the pull side — a mean of wire fixed points is not
	// itself one — so only the lossless wire stays exact there.
	switch d.resolved {
	case netsim.CollectiveAllGather:
		if d.wire != cluster.WireLossless && !d.compressed {
			return fmt.Errorf("-check: -format %s is lossy and no compressor pre-rounds to it, so no bit-exact reference exists; use -format lossless, a compressor, or drop -check", d.format)
		}
	case netsim.CollectivePS:
		if d.wire != cluster.WireLossless {
			return fmt.Errorf("-check: -format %s under ps re-encodes the mean on the pull, so no bit-exact reference exists; use -format lossless or drop -check", d.format)
		}
	}
	if d.resume != "" && resumeNotBitwise[d.compressor] {
		return fmt.Errorf("-check: -resume with %s cannot be bit-identical: its cross-step state beyond the error-feedback residual is not in the checkpoint; use topk, redsync or a sidco-* compressor, or drop -check", d.compressor)
	}
	return nil
}

// checkNodeRun asserts this process saw exactly the run the in-process
// trainer produces: bit-identical global losses (for the
// order-preserving collectives over a value-exact wire) and per-node
// traffic matching the collective step formulas. With -metrics it
// additionally scrapes this process's own HTTP endpoint and asserts
// the exported counters agree. Under -resume the reference runs the
// full -iters from scratch and the comparison covers the resumed
// tail — a bitwise pass proves checkpoint-resume reproduced the
// uninterrupted run exactly.
func checkNodeRun(d *deployment, nd *cluster.Node, nt *nodeTelemetry, losses []float64, stdout io.Writer) error {
	ref, err := trainerFor(d, d.workers, 0, nil, nil)
	if err != nil {
		return err
	}
	want, _, err := ref.Run(d.iters)
	if err != nil {
		return err
	}
	want = want[d.start:]
	bitwise := d.resolved == netsim.CollectiveAllGather || d.resolved == netsim.CollectivePS
	for i := range want {
		if bitwise && losses[i] != want[i] {
			return fmt.Errorf("check: loss[%d] = %.17g, in-process trainer says %.17g (must be bit-identical)", i, losses[i], want[i])
		}
		if !bitwise && math.Abs(losses[i]-want[i]) > 1e-9 {
			return fmt.Errorf("check: loss[%d] = %.17g, in-process trainer says %.17g (outside ring tolerance)", i, losses[i], want[i])
		}
	}
	// Every ring node sends the same share of the exchange's messages; a
	// parameter-server worker sends one push (the pulls are the server's).
	perExchange := d.resolved.Messages(d.workers) / d.workers
	if d.resolved == netsim.CollectivePS {
		perExchange = 1
	}
	wantMsgs := (d.iters - d.start) * perExchange
	if msgs, _ := nd.Transport().Totals(); msgs != wantMsgs {
		return fmt.Errorf("check: sent %d gradient messages, formula says %d", msgs, wantMsgs)
	}
	if msgs, _ := nd.Transport().RecvTotals(); msgs != wantMsgs {
		return fmt.Errorf("check: received %d gradient messages, formula says %d", msgs, wantMsgs)
	}
	if nt.addr != "" {
		// A compressed run over all-gather or PS must have stayed sparse
		// after the selection (the demo trains plain SGD): the optimizer is
		// handed the merged mean, at most every worker's selection. The
		// size of a selection is bounded for the compressors that promise
		// one — exact top-k and the band-held SIDCo family.
		sidco := strings.HasPrefix(d.compressor, "sidco-")
		applyMax := 0.0
		if bitwise && (sidco || d.compressor == "topk") {
			k := compress.TargetK(ref.Dim(), d.delta)
			applyMax = float64(d.workers*k) * (1 + core.Config{}.Default().EpsilonH)
		}
		if err := checkMetricsEndpoint(stdout, nt.addr, nd, wantMsgs, sidco, applyMax); err != nil {
			return err
		}
	}
	mode := "bit-identical to in-process"
	if !bitwise {
		mode = "within ring tolerance of in-process"
	}
	fmt.Fprintf(stdout, "node %d: check passed — losses %s, traffic exact (%d msgs)\n", d.node, mode, wantMsgs)
	return nil
}

// checkMetricsEndpoint scrapes this process's own /healthz and /metrics
// over real HTTP and asserts the exported totals equal the instrumented
// transport's exact counters and the collective's message formula — the
// full export path (aggregation, Prometheus rendering, HTTP serving) is
// verified against ground truth, so the observability layer is provably
// not lying about this run. For a SIDCo estimator it also holds the
// scraped achieved-vs-target ratio to the estimator's tolerance band: the
// paper's k-hat/k claim, read off the system's own output. It prints the
// elements the optimizer was handed per step and, when applyMax > 0, fails a
// run that handed it more: a step that should have stayed sparse after the
// selection went dense.
func checkMetricsEndpoint(stdout io.Writer, addr string, nd *cluster.Node, wantMsgs int, sidco bool, applyMax float64) error {
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", fmt.Errorf("check: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("check: reading %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("check: GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}
	health, err := get("/healthz")
	if err != nil {
		return err
	}
	if strings.TrimSpace(health) != "ok" {
		return fmt.Errorf("check: /healthz said %q, want ok", strings.TrimSpace(health))
	}
	text, err := get("/metrics")
	if err != nil {
		return err
	}
	vals, err := telemetry.ParseProm(text)
	if err != nil {
		return err
	}
	sentMsgs, sentBytes := nd.Transport().Totals()
	recvMsgs, recvBytes := nd.Transport().RecvTotals()
	for _, c := range []struct {
		metric string
		want   int
	}{
		{"sidco_sent_messages_total", sentMsgs},
		{"sidco_sent_bytes_total", sentBytes},
		{"sidco_recv_messages_total", recvMsgs},
		{"sidco_recv_bytes_total", recvBytes},
	} {
		got, ok := vals[c.metric]
		if !ok {
			return fmt.Errorf("check: /metrics did not export %s", c.metric)
		}
		if got != float64(c.want) {
			return fmt.Errorf("check: /metrics %s = %v, instrumented transport says %d", c.metric, got, c.want)
		}
	}
	if got := vals["sidco_sent_messages_total"]; got != float64(wantMsgs) {
		return fmt.Errorf("check: /metrics sidco_sent_messages_total = %v, collective formula says %d", got, wantMsgs)
	}
	// The per-link byte counters must partition the totals exactly.
	var linkSent, linkRecv float64
	for name, v := range vals {
		if strings.HasPrefix(name, "sidco_link_sent_bytes_total{") {
			linkSent += v //sidco:nondet byte counters are integral, float addition of them is exact in any order
		}
		if strings.HasPrefix(name, "sidco_link_recv_bytes_total{") {
			linkRecv += v //sidco:nondet byte counters are integral, float addition of them is exact in any order
		}
	}
	if linkSent != float64(sentBytes) || linkRecv != float64(recvBytes) {
		return fmt.Errorf("check: per-link bytes sum to %v sent / %v recv, instrumented transport says %d / %d",
			linkSent, linkRecv, sentBytes, recvBytes)
	}
	if sidco {
		band := core.Config{}.Default()
		ratio := vals["sidco_selected_elems_total"] / vals["sidco_target_elems_total"]
		if !(ratio >= 1-band.EpsilonL && ratio <= 1+band.EpsilonH) {
			return fmt.Errorf("check: /metrics selected/target elements = %v/%v = %.3f, outside the estimator's band [%.2f, %.2f]",
				vals["sidco_selected_elems_total"], vals["sidco_target_elems_total"], ratio, 1-band.EpsilonL, 1+band.EpsilonH)
		}
		fmt.Fprintf(stdout, "metrics endpoint verified: k-hat/k = %.3f in band, %v list corrections, %v sweep fallbacks\n",
			ratio, vals["sidco_select_list_corrections_total"], vals["sidco_select_sweep_fallbacks_total"])
	}
	applied := vals["sidco_apply_elems_total"] / vals["sidco_steps_total"]
	if applyMax > 0 && !(applied <= applyMax) {
		return fmt.Errorf("check: /metrics apply elems/step = %v/%v = %.1f, above the %.1f the workers' selections can merge to: the step did not stay sparse after the selection",
			vals["sidco_apply_elems_total"], vals["sidco_steps_total"], applied, applyMax)
	}
	fmt.Fprintf(stdout, "metrics endpoint verified: apply elems/step = %.1f", applied)
	if applyMax > 0 {
		fmt.Fprintf(stdout, " <= %.1f (sparse after the selection)", applyMax)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "metrics endpoint verified: %d msgs, %d bytes sent match formula + instrumented totals\n", sentMsgs, sentBytes)
	return nil
}

// childArgs is rank's command line: every flag set on the launcher's, less
// the launcher's own, with the per-rank rewrites — its rank and the host
// list; its own kernel-assigned metrics port, since children cannot share
// a fixed address; its own telemetry file; the fault-injection step for
// the -kill-rank target, and no -check under -kill-rank.
func childArgs(d *deployment, rank int, addrs []string) []string {
	args := []string{"-node", strconv.Itoa(rank), "-hosts", strings.Join(addrs, ",")}
	d.flags.Visit(func(f *flag.Flag) {
		v := f.Value.String()
		switch f.Name {
		case "launch", "launch-timeout", "kill-rank", "node", "hosts", "hostfile":
			return
		case "check":
			if d.killR >= 0 {
				return
			}
		case "metrics":
			if v != "" {
				v = "127.0.0.1:0"
			}
		case "telemetry":
			if v != "" {
				v = rankPath(v, rank)
			}
		}
		args = append(args, "-"+f.Name+"="+v)
	})
	if rank == d.killR {
		args = append(args, "-kill-at-step", strconv.Itoa(d.killStep))
	}
	return args
}

// runLaunch spawns the whole deployment on this machine: -launch N
// worker processes (plus a server process under ps) over kernel-assigned
// loopback ports. The first failing child takes the rest of the
// deployment down with it, and a watchdog kills everything if the run
// overstays -launch-timeout — a hung deployment fails fast instead of
// pinning CI until its global timeout.
func runLaunch(d *deployment, stdout, stderr io.Writer) error {
	addrs, err := cluster.FreeLoopbackAddrs(d.nodes)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Catch Ctrl-C / SIGTERM before spawning: an interrupted launcher must
	// take its children with it instead of leaking orphan ranks that hold
	// their loopback ports until the schedule deadlocks. The watchdog and
	// a child's genuine failure take the deployment down the same way.
	interrupt, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, killAll := context.WithTimeout(interrupt, d.launchTimeout)
	defer killAll()
	if d.killR >= 0 && d.check {
		fmt.Fprintf(stdout, "kill-rank: per-child bitwise -check is off (membership shrinks mid-run); gating on survivor agreement instead\n")
	}
	fmt.Fprintf(stdout, "launching %d processes over loopback (%s)\n", d.nodes, strings.Join(addrs, ", "))
	type child struct {
		rank int
		cmd  *exec.Cmd
		out  bytes.Buffer
		err  error
	}
	children := make([]*child, d.nodes)
	exits := make(chan *child, d.nodes)
	for rank := range children {
		c := &child{rank: rank, cmd: exec.CommandContext(ctx, exe, childArgs(d, rank, addrs)...)}
		c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
		if err := c.cmd.Start(); err != nil {
			return fmt.Errorf("starting node %d: %w", rank, err) // killAll takes the started ones down
		}
		children[rank] = c
		go func() {
			c.err = c.cmd.Wait()
			exits <- c
		}()
	}
	// expectedKill: the fault-injection target dying with its designated
	// exit code is the plan, not a failure — the survivors keep running.
	expectedKill := func(c *child) bool {
		var ee *exec.ExitError
		return c.rank == d.killR && errors.As(c.err, &ee) && ee.ExitCode() == killExitCode
	}
	failed := 0
	for range children {
		switch c := <-exits; {
		case c.err == nil:
		case expectedKill(c):
			fmt.Fprintf(stdout, "launch: rank %d died on schedule before step %d\n", d.killR, d.killStep)
		default:
			failed++
			// One dead node stalls its peers mid-schedule; take the
			// deployment down so every Wait returns promptly.
			killAll()
		}
	}
	for _, c := range children {
		genuineFail := c.err != nil && !expectedKill(c)
		if c.rank == 0 || genuineFail {
			stdout.Write(c.out.Bytes())
		}
		if genuineFail {
			fmt.Fprintf(stderr, "node %d exited with %v\n", c.rank, c.err)
		}
	}
	switch {
	case interrupt.Err() != nil:
		return fmt.Errorf("interrupted; deployment killed")
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("deployment killed after %v watchdog", d.launchTimeout)
	case failed > 0:
		return fmt.Errorf("%d of %d processes failed", failed, d.nodes)
	}
	if d.killR >= 0 {
		kc := children[d.killR]
		if !expectedKill(kc) {
			return fmt.Errorf("kill-rank: rank %d was scheduled to die before step %d but exited with %v", d.killR, d.killStep, kc.err)
		}
		serverRank := -1
		if d.coll == netsim.CollectivePS {
			serverRank = d.nodes - 1
		}
		if err := checkSurvivorAgreement(stdout, d.nodes, d.killR, serverRank, func(r int) []byte { return children[r].out.Bytes() }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "launch: rank %d killed at step %d, %d survivors finished cleanly\n", d.killR, d.killStep, d.nodes-1)
		return nil
	}
	fmt.Fprintf(stdout, "launch: all %d processes finished cleanly\n", d.nodes)
	if d.telemetryPath != "" && d.check {
		return checkLaunchTraces(d, stdout)
	}
	return nil
}

// parseKillRank decodes a -kill-rank R@K spec; empty means no fault
// injection (rank -1).
func parseKillRank(s string) (rank, step int, err error) {
	if s == "" {
		return -1, -1, nil
	}
	r, k, ok := strings.Cut(s, "@")
	rank, rerr := strconv.Atoi(r)
	step, kerr := strconv.Atoi(k)
	if !ok || rerr != nil || kerr != nil || rank < 0 || step < 0 {
		return -1, -1, fmt.Errorf("-kill-rank %q: want R@K with rank R and step K both >= 0", s)
	}
	return rank, step, nil
}

// finalLoss scans a child's output for its "final global loss" line.
// %.17g printing round-trips float64 exactly, so the parsed value is
// bit-identical to what the child computed.
func finalLoss(out []byte) (float64, bool) {
	for _, line := range strings.Split(string(out), "\n") {
		i := strings.Index(line, "final global loss ")
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i:], "final global loss %g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// checkSurvivorAgreement is the kill-mode gate: every surviving worker
// rank must have printed a final global loss, and — because the
// renegotiated group reduces in the same member order with the same
// rescaled mean everywhere — those losses must agree bit for bit. A
// survivor that silently diverged after the membership change fails the
// launch here even though its process exited zero.
func checkSurvivorAgreement(w io.Writer, nodes, killR, serverRank int, output func(rank int) []byte) error {
	ref, refRank := 0.0, -1
	for r := 0; r < nodes; r++ {
		if r == killR || r == serverRank {
			continue
		}
		loss, ok := finalLoss(output(r))
		if !ok {
			return fmt.Errorf("kill-rank: survivor rank %d printed no final global loss", r)
		}
		if refRank < 0 {
			ref, refRank = loss, r
			continue
		}
		if math.Float64bits(loss) != math.Float64bits(ref) {
			return fmt.Errorf("kill-rank: survivor rank %d finished at loss %.17g, rank %d at %.17g — survivors diverged", r, loss, refRank, ref)
		}
	}
	fmt.Fprintf(w, "kill-rank check passed: survivors agree on final global loss %.17g\n", ref)
	return nil
}

// checkLaunchTraces assembles the children's per-rank telemetry streams
// into one global timeline and gates the deployment on it: every
// gradient message and every TCP frame the ranks sent must pair with
// exactly one receive on the peer's stream, and the paired gradient
// total must equal the exchanges this launch ran (after any resume) of
// the collective's closed-form message count — the cross-process half of
// the traffic accounting each child already verified locally.
func checkLaunchTraces(d *deployment, stdout io.Writer) error {
	streams := make([]*traceview.Stream, 0, d.nodes)
	for rank := 0; rank < d.nodes; rank++ {
		s, err := traceview.ReadFile(rankPath(d.telemetryPath, rank))
		if err != nil {
			return fmt.Errorf("launch trace check: %w", err)
		}
		streams = append(streams, s)
	}
	tl, err := traceview.Assemble(streams)
	if err != nil {
		return fmt.Errorf("launch trace check: %w", err)
	}
	if err := traceview.CheckComplete(tl); err != nil {
		return fmt.Errorf("launch trace check: %w", err)
	}
	if err := traceview.CheckMessageCount(tl, d.resolved, d.workers, d.iters-d.start); err != nil {
		return fmt.Errorf("launch trace check: %w", err)
	}
	paired, _, _ := tl.PairStats(false)
	wirePaired, _, _ := tl.PairStats(true)
	fmt.Fprintf(stdout, "launch trace check: %d gradient + %d wire messages assembled across %d ranks, all paired, counts match the %s formula\n",
		paired, wirePaired, d.nodes, d.resolved)
	return nil
}
