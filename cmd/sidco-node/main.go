// Command sidco-node runs ONE cluster node as an OS process: the
// multi-process deployment of the message-passing collective layer.
// Every process gets the same host list and its own rank; rank r trains
// global worker r through a Workers=1 dist.Trainer whose gradient
// exchange is a cluster.Node over a TCPTransport, so the ring all-reduce
// / all-gather / parameter-server schedules execute over real sockets.
// Over the lossless wire format
// the deployment reproduces the single-process in-process trainer's
// global loss sequence bit-for-bit, which -check asserts per process —
// and over the quantized all-gather wires (-format pairs, pairs-f16,
// pairs-bf16, pairs-i8) too, because error feedback pre-rounds every
// selected value to wire precision before it ships.
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
//	sidco-node -launch 4 -format pairs-i8 -check    # int8 wire (~8x fewer value bytes), still bit-gated via EC pre-rounding
//	sidco-node -launch 4 -metrics auto -check   # + per-process /metrics endpoints, scrape-verified
//
// -launch spawns the whole deployment on this machine (kernel-assigned
// loopback ports) and exits non-zero if any process fails its checks —
// the CI quick gate runs exactly that.
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
package main

import (
	"bytes"
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
	"strings"
	"syscall"
	"time"

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

// killExitCode is the exit status of a process that self-killed on its
// -kill-at-step schedule: the launcher distinguishes the planned death
// of the fault-injection target from a genuine child failure by it.
const killExitCode = 3

func main() {
	var opt options
	flag.IntVar(&opt.node, "node", -1, "this process's rank in the host list (0-based)")
	flag.StringVar(&opt.hosts, "hosts", "", "comma-separated host:port list, entry i = node i")
	flag.StringVar(&opt.hostfile, "hostfile", "", "file with one host:port per line (alternative to -hosts)")
	flag.IntVar(&opt.launch, "launch", 0, "spawn this many worker processes over loopback instead of being one node")
	flag.StringVar(&opt.collective, "collective", "allgather", "collective schedule: auto, ring, allgather or ps")
	flag.IntVar(&opt.iters, "iters", 6, "training iterations")
	flag.StringVar(&opt.compressor, "compressor", "sidco-e", "registry compressor (none: dense training)")
	flag.Float64Var(&opt.delta, "delta", 0.05, "compression ratio k/d")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.StringVar(&opt.format, "format", "lossless", "gradient wire format: lossless, pairs, bitmap, dense, delta-varint, pairs-f16, pairs-bf16 or pairs-i8 (lossy wires pair with error feedback, which absorbs the rounding residual)")
	flag.BoolVar(&opt.check, "check", false, "verify global losses bit-identical to the in-process trainer and per-node traffic against the collective formulas")
	flag.StringVar(&opt.metrics, "metrics", "", "serve /metrics, /healthz and /debug/pprof on this address (\"auto\": kernel-assigned loopback port)")
	flag.StringVar(&opt.telemetryPath, "telemetry", "", "stream telemetry events as JSONL to this file (per-rank suffix under -launch)")
	flag.DurationVar(&opt.dialTimeout, "dial-timeout", 10*time.Second, "per-link lazy-dial retry budget (peers may start later)")
	flag.DurationVar(&opt.launchTimeout, "launch-timeout", 2*time.Minute, "watchdog for -launch: kill the deployment and fail if it has not finished by then")
	flag.DurationVar(&opt.stepTimeout, "step-timeout", 0, "per-collective-step receive budget; 0 blocks forever. Fault-tolerant runs need it to detect dead peers")
	flag.IntVar(&opt.stepRetries, "step-retries", 0, "elastic recovery: retry a failed step this many times over the renegotiated survivor group (needs -step-timeout > 0)")
	flag.IntVar(&opt.killAtStep, "kill-at-step", -1, fmt.Sprintf("fault injection: exit with code %d immediately before this step's exchange", killExitCode))
	flag.StringVar(&opt.killRank, "kill-rank", "", "launch mode, R@K: forward -kill-at-step K to rank R and gate on the survivors finishing with identical final losses")
	flag.StringVar(&opt.ckpt, "ckpt", "", "write this rank's resume state to PREFIX.rankR (atomic replace) every -ckpt-every steps and after the final step")
	flag.IntVar(&opt.ckptEvery, "ckpt-every", 1, "checkpoint cadence in steps for -ckpt")
	flag.StringVar(&opt.resume, "resume", "", "resume from PREFIX.rankR written by -ckpt; -iters stays the TOTAL step count, the process runs the remaining steps. Bit-identical resume needs a compressor whose only cross-step state is the EC residual (topk, redsync, none, sidco-*; not dgc, randomk or gaussiank, which -check therefore refuses)")
	flag.Parse()

	var err error
	switch {
	case opt.launch > 0:
		err = runLaunch(opt)
	case opt.node >= 0:
		err = runNode(opt)
	default:
		err = fmt.Errorf("pass -launch N for a loopback deployment, or -node R -hosts ... to be one node (see -h)")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sidco-node: %v\n", err)
		os.Exit(1)
	}
}

func parseCollective(name string) (netsim.Collective, error) {
	switch name {
	case "auto":
		return netsim.CollectiveAuto, nil
	case "ring":
		return netsim.CollectiveRing, nil
	case "allgather":
		return netsim.CollectiveAllGather, nil
	case "ps":
		return netsim.CollectivePS, nil
	default:
		return 0, fmt.Errorf("unknown collective %q (want auto, ring, allgather or ps)", name)
	}
}

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
		raw = strings.ReplaceAll(strings.TrimSpace(string(data)), "\n", ",")
	}
	var hosts []string
	for _, h := range strings.Split(raw, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
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
	agg    *telemetry.Aggregator
	jsonl  *telemetry.JSONL
	file   *os.File
	srv    *http.Server
	addr   string // bound metrics address, "" when -metrics is off
}

// setupTelemetry builds the stack for the flags; with neither flag set
// it returns a disabled stack (nil tracer — the zero-cost path).
func setupTelemetry(opt options) (*nodeTelemetry, error) {
	nt := &nodeTelemetry{}
	if opt.metrics == "" && opt.telemetryPath == "" {
		return nt, nil
	}
	var sinks []telemetry.Sink
	nt.agg = telemetry.NewAggregator()
	sinks = append(sinks, nt.agg)
	if opt.telemetryPath != "" {
		f, err := os.Create(opt.telemetryPath)
		if err != nil {
			return nil, fmt.Errorf("-telemetry: %w", err)
		}
		nt.file = f
		// The per-rank node id in the stream's meta record is what lets
		// sidco-trace match message sides to streams when it aligns the
		// ranks' clocks.
		nt.jsonl = telemetry.NewJSONLForNode(f, opt.node)
		sinks = append(sinks, nt.jsonl)
	}
	nt.tracer = telemetry.New(sinks...)
	if opt.metrics != "" {
		addr := opt.metrics
		if addr == "auto" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			nt.close()
			return nil, fmt.Errorf("-metrics %s: %w", opt.metrics, err)
		}
		nt.addr = ln.Addr().String()
		nt.srv = &http.Server{Handler: telemetry.Handler(nt.agg)}
		go nt.srv.Serve(ln)
		fmt.Printf("node %d: metrics on http://%s/metrics\n", opt.node, nt.addr)
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
// model and batch stream as cmd/sidco-cluster) at any (workers,
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
func trainerFor(opt options, workers, firstWorker int, ex dist.GradientExchange, tel *telemetry.Tracer) (*dist.Trainer, error) {
	wire, err := cluster.ParseWire(opt.format)
	if err != nil {
		return nil, err
	}
	var ecWire *encoding.Format
	if opt.compressor != "" && opt.compressor != "none" && wire != cluster.WireLossless {
		f, err := wire.Format()
		if err != nil {
			return nil, err
		}
		ecWire = &f
	}
	return harness.DemoTrainer(dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: firstWorker,
		Delta:       opt.delta,
		ECWire:      ecWire,
		Seed:        opt.seed,
		Exchange:    ex,
		Telemetry:   tel,
	}, opt.compressor)
}

// clusterConfig is the deployment's cluster configuration as the flags
// give it: what the launcher validates before it spawns anything, and
// what every rank binds to its own transport.
func clusterConfig(opt options, workers int, coll netsim.Collective) (cluster.Config, error) {
	wire, err := cluster.ParseWire(opt.format)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Workers:        workers,
		Collective:     coll,
		Format:         wire,
		StepTimeout:    opt.stepTimeout,
		MaxStepRetries: opt.stepRetries,
	}, nil
}

// runNode is one process of the deployment: worker or parameter server.
func runNode(opt options) error {
	if opt.iters < 1 {
		return fmt.Errorf("-iters %d, need >= 1", opt.iters)
	}
	if opt.ckptEvery < 1 {
		return fmt.Errorf("-ckpt-every %d, need >= 1", opt.ckptEvery)
	}
	coll, err := parseCollective(opt.collective)
	if err != nil {
		return err
	}
	if err := checkViable(opt, coll); err != nil {
		return err
	}
	hosts, err := parseHosts(opt)
	if err != nil {
		return err
	}
	workers := len(hosts)
	if coll == netsim.CollectivePS {
		workers--
		if workers < 1 {
			return fmt.Errorf("ps needs at least 2 hosts (workers + server), got %d", len(hosts))
		}
	}
	if opt.node >= len(hosts) {
		return fmt.Errorf("-node %d outside the %d-host list", opt.node, len(hosts))
	}
	cfg, err := clusterConfig(opt, workers, coll)
	if err != nil {
		return err
	}
	nt, err := setupTelemetry(opt)
	if err != nil {
		return err
	}
	defer nt.close()
	tp, err := cluster.NewTCPTransport(cluster.TCPConfig{
		Addrs:       hosts,
		Local:       []int{opt.node},
		DialTimeout: opt.dialTimeout,
		Telemetry:   nt.tracer,
	})
	if err != nil {
		return err
	}
	defer tp.Close()
	cfg.Rank, cfg.Transport, cfg.Telemetry = opt.node, tp, nt.tracer
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		return err
	}
	if opt.node == workers { // parameter-server rank
		first := 0
		if opt.resume != "" {
			// The server is stateless; it only needs the step the workers
			// resume at, which it reads off worker 0's checkpoint (same
			// filesystem under -launch; multi-host operators adjust -iters
			// instead).
			ck, err := dist.LoadCheckpoint(fmt.Sprintf("%s.rank0", opt.resume))
			if err != nil {
				return fmt.Errorf("-resume on the server rank reads rank 0's checkpoint for the round offset: %w", err)
			}
			first = ck.Step
			if first >= opt.iters {
				return fmt.Errorf("-resume: checkpoint already at step %d, -iters %d (total) leaves nothing to serve", ck.Step, opt.iters)
			}
		}
		if err := nd.Serve(first, opt.iters-first); err != nil {
			return err
		}
		fmt.Printf("node %d (server): served %d rounds\n", opt.node, opt.iters-first)
		return nil
	}
	tr, err := trainerFor(opt, 1, opt.node, nd, nt.tracer)
	if err != nil {
		return err
	}
	ckptPath := ""
	if opt.ckpt != "" {
		ckptPath = fmt.Sprintf("%s.rank%d", opt.ckpt, opt.node)
	}
	start := 0
	if opt.resume != "" {
		ck, err := dist.LoadCheckpoint(fmt.Sprintf("%s.rank%d", opt.resume, opt.node))
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		if ck.Step >= opt.iters {
			return fmt.Errorf("-resume: checkpoint already at step %d, -iters %d (total) leaves nothing to run", ck.Step, opt.iters)
		}
		if err := tr.Restore(ck); err != nil {
			return err
		}
		start = ck.Step
		fmt.Printf("node %d: resumed at step %d\n", opt.node, start)
	}
	losses := make([]float64, 0, opt.iters-start)
	for it := start; it < opt.iters; it++ {
		if opt.killAtStep >= 0 && it == opt.killAtStep {
			// Die at the START of step it: step it-1 fully completed, nothing
			// of step it sent yet — the deterministic point the fault-injection
			// schedule and the elastic-recovery tests are defined against.
			fmt.Printf("node %d: fault injection — dying before step %d\n", opt.node, it)
			nt.close()
			os.Exit(killExitCode)
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
		if ckptPath != "" && ((it+1)%opt.ckptEvery == 0 || it+1 == opt.iters) {
			ck, err := tr.Checkpoint()
			if err != nil {
				return err
			}
			if err := dist.SaveCheckpoint(ckptPath, ck); err != nil {
				return err
			}
		}
	}
	if opt.node == 0 {
		printLosses(opt, coll, losses)
	}
	fmt.Printf("node %d: final global loss %.17g over %d iterations\n", opt.node, losses[len(losses)-1], opt.iters)
	if opt.check {
		return checkNodeRun(opt, coll, workers, nd, nt, losses, start)
	}
	return nil
}

// resolveCollective maps CollectiveAuto to the schedule the run will
// actually execute: all-gather for compressed training, ring otherwise.
func resolveCollective(opt options, coll netsim.Collective) netsim.Collective {
	if coll != netsim.CollectiveAuto {
		return coll
	}
	if opt.compressor != "" && opt.compressor != "none" {
		return netsim.CollectiveAllGather
	}
	return netsim.CollectiveRing
}

// printLosses renders rank 0's view of the run.
func printLosses(opt options, coll netsim.Collective, losses []float64) {
	tbl := harness.NewTable(
		fmt.Sprintf("Multi-process run — %s over TCP, %s, N from host list, delta=%g: global loss per iteration",
			coll, opt.compressor, opt.delta),
		"iter", "global loss")
	for i, l := range losses {
		tbl.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.17g", l))
	}
	tbl.Render(os.Stdout)
}

// resumeNotBitwise names the compressors that carry state across steps
// besides the error-feedback residual — dgc and randomk an RNG stream
// position, gaussiank its correction factor — which dist.Checkpoint does
// not capture: resumed, they train on, but not bit for bit.
var resumeNotBitwise = map[string]bool{"dgc": true, "randomk": true, "gaussiank": true}

// checkViable refuses a -check that cannot pass, before anything trains:
// the launcher calls it before it spawns a child and every node before
// its first step, so an impossible gate costs nothing instead of a whole
// run. It says nothing without -check.
func checkViable(opt options, coll netsim.Collective) error {
	if !opt.check {
		return nil
	}
	wire, err := cluster.ParseWire(opt.format)
	if err != nil {
		return err
	}
	// The all-gather replays each worker's selection verbatim, and under a
	// lossy wire with a compressor on, error feedback has pre-rounded it to
	// a fixed point of the wire's rounding, so the sockets deliver exactly
	// what the reference computes. The parameter server re-encodes the
	// aggregated mean on the pull side — a mean of wire fixed points is not
	// itself one — so only the lossless wire stays exact there.
	compressed := opt.compressor != "" && opt.compressor != "none"
	switch resolveCollective(opt, coll) {
	case netsim.CollectiveAllGather:
		if wire != cluster.WireLossless && !compressed {
			return fmt.Errorf("-check: -format %s is lossy and no compressor pre-rounds to it, so no bit-exact reference exists; use -format lossless, a compressor, or drop -check", opt.format)
		}
	case netsim.CollectivePS:
		if wire != cluster.WireLossless {
			return fmt.Errorf("-check: -format %s under ps re-encodes the mean on the pull, so no bit-exact reference exists; use -format lossless or drop -check", opt.format)
		}
	}
	if opt.resume != "" && resumeNotBitwise[opt.compressor] {
		return fmt.Errorf("-check: -resume with %s cannot be bit-identical: its cross-step state beyond the error-feedback residual is not in the checkpoint; use topk, redsync or a sidco-* compressor, or drop -check", opt.compressor)
	}
	return nil
}

// checkNodeRun asserts this process saw exactly the run the in-process
// trainer produces: bit-identical global losses (for the
// order-preserving collectives over a value-exact wire) and per-node
// traffic matching the collective step formulas. With -metrics it
// additionally scrapes this process's own HTTP endpoint and asserts
// the exported counters agree. Under -resume the reference runs the
// full opt.iters from scratch and the comparison covers the resumed
// tail — a bitwise pass proves checkpoint-resume reproduced the
// uninterrupted run exactly.
func checkNodeRun(opt options, coll netsim.Collective, workers int, nd *cluster.Node, nt *nodeTelemetry, losses []float64, start int) error {
	ref, err := trainerFor(opt, workers, 0, nil, nil)
	if err != nil {
		return err
	}
	want, _, err := ref.Run(opt.iters)
	if err != nil {
		return err
	}
	want = want[start:]
	resolved := resolveCollective(opt, coll)
	bitwise := resolved == netsim.CollectiveAllGather || resolved == netsim.CollectivePS
	for i := range want {
		if bitwise && losses[i] != want[i] {
			return fmt.Errorf("check: loss[%d] = %.17g, in-process trainer says %.17g (must be bit-identical)", i, losses[i], want[i])
		}
		if !bitwise && math.Abs(losses[i]-want[i]) > 1e-9 {
			return fmt.Errorf("check: loss[%d] = %.17g, in-process trainer says %.17g (outside ring tolerance)", i, losses[i], want[i])
		}
	}
	exchanges := opt.iters - start
	var wantMsgs int
	switch resolved {
	case netsim.CollectiveAllGather:
		wantMsgs = exchanges * netsim.AllGatherMessages(workers)
	case netsim.CollectiveRing:
		wantMsgs = exchanges * netsim.RingMessages(workers)
	case netsim.CollectivePS:
		wantMsgs = exchanges
	}
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
		sidco := strings.HasPrefix(opt.compressor, "sidco-")
		applyMax := 0.0
		if bitwise && (sidco || opt.compressor == "topk") {
			k := compress.TargetK(ref.Dim(), opt.delta)
			applyMax = float64(workers*k) * (1 + core.Config{}.Default().EpsilonH)
		}
		if err := checkMetricsEndpoint(nt.addr, nd, wantMsgs, sidco, applyMax); err != nil {
			return err
		}
	}
	mode := "bit-identical to in-process"
	if !bitwise {
		mode = "within ring tolerance of in-process"
	}
	fmt.Printf("node %d: check passed — losses %s, traffic exact (%d msgs)\n", opt.node, mode, wantMsgs)
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
func checkMetricsEndpoint(addr string, nd *cluster.Node, wantMsgs int, sidco bool, applyMax float64) error {
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
		fmt.Printf("metrics endpoint verified: k-hat/k = %.3f in band, %v list corrections, %v sweep fallbacks\n",
			ratio, vals["sidco_select_list_corrections_total"], vals["sidco_select_sweep_fallbacks_total"])
	}
	applied := vals["sidco_apply_elems_total"] / vals["sidco_steps_total"]
	if applyMax > 0 && !(applied <= applyMax) {
		return fmt.Errorf("check: /metrics apply elems/step = %v/%v = %.1f, above the %.1f the workers' selections can merge to: the step did not stay sparse after the selection",
			vals["sidco_apply_elems_total"], vals["sidco_steps_total"], applied, applyMax)
	}
	fmt.Printf("metrics endpoint verified: apply elems/step = %.1f", applied)
	if applyMax > 0 {
		fmt.Printf(" <= %.1f (sparse after the selection)", applyMax)
	}
	fmt.Println()
	fmt.Printf("metrics endpoint verified: %d msgs, %d bytes sent match formula + instrumented totals\n", sentMsgs, sentBytes)
	return nil
}

// runLaunch spawns the whole deployment on this machine: -launch N
// worker processes (plus a server process under ps) over kernel-assigned
// loopback ports, forwarding the workload flags to every child. The
// first failing child takes the rest of the deployment down with it, and
// a watchdog kills everything if the run overstays -launch-timeout — a
// hung deployment fails fast instead of pinning CI until its global
// timeout.
func runLaunch(opt options) error {
	if opt.iters < 1 {
		return fmt.Errorf("-iters %d, need >= 1", opt.iters)
	}
	coll, err := parseCollective(opt.collective)
	if err != nil {
		return err
	}
	nodes := cluster.NodeCount(opt.launch, coll)
	serverRank := -1
	if resolveCollective(opt, coll) == netsim.CollectivePS {
		serverRank = nodes - 1
	}
	killR, killStep, err := parseKillRank(opt.killRank)
	if err != nil {
		return err
	}
	if killR >= 0 {
		if killR >= nodes {
			return fmt.Errorf("-kill-rank %d outside the %d-node deployment", killR, nodes)
		}
		if killR == serverRank {
			return fmt.Errorf("-kill-rank %d is the parameter server; losing it is unrecoverable by design — kill a worker rank", killR)
		}
		if killStep >= opt.iters {
			return fmt.Errorf("-kill-rank step %d >= -iters %d: the target would never die", killStep, opt.iters)
		}
		// Fault injection needs failure detection and recovery budget;
		// default both on so the quickstart gate works out of the box.
		if opt.stepTimeout <= 0 {
			opt.stepTimeout = 2 * time.Second
		}
		if opt.stepRetries == 0 {
			opt.stepRetries = 2
		}
		if opt.check {
			fmt.Printf("kill-rank: per-child bitwise -check is off (membership shrinks mid-run); gating on survivor agreement instead\n")
		}
	}
	// Pre-flight: refuse an unsupported combination here, once, instead
	// of in every child after the deployment is up.
	if killR < 0 {
		if err := checkViable(opt, coll); err != nil {
			return err
		}
	}
	cfg, err := clusterConfig(opt, opt.launch, coll)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	addrs, err := cluster.FreeLoopbackAddrs(nodes)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Catch Ctrl-C / SIGTERM before spawning: an interrupted launcher must
	// take its children with it instead of leaking orphan ranks that hold
	// their loopback ports until the schedule deadlocks.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Printf("launching %d processes over loopback (%s)\n", nodes, strings.Join(addrs, ", "))
	type child struct {
		rank int
		cmd  *exec.Cmd
		out  bytes.Buffer
		err  error
	}
	children := make([]*child, nodes)
	exits := make(chan *child, nodes)
	for rank := 0; rank < nodes; rank++ {
		args := []string{
			"-node", fmt.Sprint(rank),
			"-hosts", strings.Join(addrs, ","),
			"-collective", opt.collective,
			"-iters", fmt.Sprint(opt.iters),
			"-compressor", opt.compressor,
			"-delta", fmt.Sprint(opt.delta),
			"-seed", fmt.Sprint(opt.seed),
			"-format", opt.format,
			"-dial-timeout", opt.dialTimeout.String(),
			"-step-timeout", opt.stepTimeout.String(),
			"-step-retries", fmt.Sprint(opt.stepRetries),
		}
		if rank == killR {
			args = append(args, "-kill-at-step", fmt.Sprint(killStep))
		}
		if opt.ckpt != "" {
			args = append(args, "-ckpt", opt.ckpt, "-ckpt-every", fmt.Sprint(opt.ckptEvery))
		}
		if opt.resume != "" {
			args = append(args, "-resume", opt.resume)
		}
		if opt.check && killR < 0 {
			args = append(args, "-check")
		}
		if opt.metrics != "" {
			// Children cannot share a fixed address; each binds its own
			// kernel-assigned loopback port (printed in its output).
			args = append(args, "-metrics", "127.0.0.1:0")
		}
		if opt.telemetryPath != "" {
			args = append(args, "-telemetry", fmt.Sprintf("%s.rank%d", opt.telemetryPath, rank))
		}
		c := &child{rank: rank, cmd: exec.Command(exe, args...)}
		c.cmd.Stdout = &c.out
		c.cmd.Stderr = &c.out
		if err := c.cmd.Start(); err != nil {
			for _, prev := range children[:rank] {
				prev.cmd.Process.Kill()
			}
			return fmt.Errorf("starting node %d: %w", rank, err)
		}
		children[rank] = c
	}
	for _, c := range children {
		go func(c *child) {
			c.err = c.cmd.Wait()
			exits <- c
		}(c)
	}
	killAll := func() {
		for _, c := range children {
			c.cmd.Process.Kill()
		}
	}
	// expectedKill: the fault-injection target dying with its designated
	// exit code is the plan, not a failure — the survivors keep running.
	expectedKill := func(c *child) bool {
		return c.rank == killR && exitStatus(c.err) == killExitCode
	}
	watchdog := time.After(opt.launchTimeout) //sidco:nondet process-supervision timeout, not training state
	failed, timedOut, interrupted := 0, false, false
	for collected := 0; collected < nodes; {
		select {
		case c := <-exits:
			collected++
			if c.err == nil {
				continue
			}
			if expectedKill(c) {
				fmt.Printf("launch: rank %d died on schedule before step %d\n", killR, killStep)
				continue
			}
			failed++
			// One dead node stalls its peers mid-schedule; take the
			// deployment down so every Wait returns promptly.
			killAll()
		case <-watchdog:
			timedOut = true
			killAll()
			watchdog = nil // keep draining exits; children are dying now
		case sig := <-sigc:
			interrupted = true
			fmt.Fprintf(os.Stderr, "launch: caught %v, killing %d children\n", sig, nodes)
			killAll()
		}
	}
	for _, c := range children {
		genuineFail := c.err != nil && !expectedKill(c)
		if c.rank == 0 || genuineFail {
			os.Stdout.Write(c.out.Bytes())
		}
		if genuineFail {
			fmt.Fprintf(os.Stderr, "node %d exited with %v\n", c.rank, c.err)
		}
	}
	if interrupted {
		return fmt.Errorf("interrupted; deployment killed")
	}
	if timedOut {
		return fmt.Errorf("deployment killed after %v watchdog", opt.launchTimeout)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d processes failed", failed, nodes)
	}
	if killR >= 0 {
		kc := children[killR]
		if !expectedKill(kc) {
			return fmt.Errorf("kill-rank: rank %d was scheduled to die before step %d but exited with %v", killR, killStep, kc.err)
		}
		if err := checkSurvivorAgreement(nodes, killR, serverRank, func(r int) []byte { return children[r].out.Bytes() }); err != nil {
			return err
		}
		fmt.Printf("launch: rank %d killed at step %d, %d survivors finished cleanly\n", killR, killStep, nodes-1)
		return nil
	}
	fmt.Printf("launch: all %d processes finished cleanly\n", nodes)
	if opt.telemetryPath != "" && opt.check {
		if err := checkLaunchTraces(opt, coll, nodes); err != nil {
			return err
		}
	}
	return nil
}

// parseKillRank decodes a -kill-rank R@K spec; empty means no fault
// injection (rank -1).
func parseKillRank(s string) (rank, step int, err error) {
	if s == "" {
		return -1, -1, nil
	}
	if _, serr := fmt.Sscanf(s, "%d@%d", &rank, &step); serr != nil || rank < 0 || step < 0 {
		return -1, -1, fmt.Errorf("-kill-rank %q: want R@K with rank R and step K both >= 0", s)
	}
	return rank, step, nil
}

// exitStatus extracts a child's exit code, or -1 when it did not exit
// normally (nil error, signal death, start failure).
func exitStatus(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
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
func checkSurvivorAgreement(nodes, killR, serverRank int, output func(rank int) []byte) error {
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
	fmt.Printf("kill-rank check passed: survivors agree on final global loss %.17g\n", ref)
	return nil
}

// checkLaunchTraces assembles the children's per-rank telemetry streams
// into one global timeline and gates the deployment on it: every
// gradient message and every TCP frame the ranks sent must pair with
// exactly one receive on the peer's stream, and the paired gradient
// total must equal iters exchanges of the collective's closed-form
// message count — the cross-process half of the traffic accounting each
// child already verified locally.
func checkLaunchTraces(opt options, coll netsim.Collective, nodes int) error {
	streams := make([]*traceview.Stream, 0, nodes)
	for rank := 0; rank < nodes; rank++ {
		s, err := traceview.ReadFile(fmt.Sprintf("%s.rank%d", opt.telemetryPath, rank))
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
	resolved := resolveCollective(opt, coll)
	if err := traceview.CheckMessageCount(tl, resolved, opt.launch, opt.iters); err != nil {
		return fmt.Errorf("launch trace check: %w", err)
	}
	paired, _, _ := tl.PairStats(false)
	wirePaired, _, _ := tl.PairStats(true)
	fmt.Printf("launch trace check: %d gradient + %d wire messages assembled across %d ranks, all paired, counts match the %s formula\n",
		paired, wirePaired, nodes, resolved)
	return nil
}
