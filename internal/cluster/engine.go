package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config describes one cluster deployment: Engine hosts every rank of it
// in one process, a Node is one rank of it in a process of its own. Every
// process of a deployment must pass identical Workers, Collective, Format
// and ComputeSec, or the interlocking schedules diverge.
type Config struct {
	// Workers is the global number of training nodes N (>= 1).
	Workers int
	// Rank is the node NewNode binds: 0..Workers-1 for a worker, or
	// exactly Workers for the parameter-server node (CollectivePS only),
	// which runs Serve instead of Exchange. New ignores it — an Engine
	// hosts every rank.
	Rank int
	// Collective selects the exchange schedule. CollectiveAuto mirrors
	// netsim: all-gather when a contribution is sparse, ring all-reduce
	// when dense.
	Collective netsim.Collective
	// Format is the wire format for encoded gradient payloads. The zero
	// value WireLossless (encoding.FormatPairs64) makes all-gather and
	// parameter-server exchanges reproduce the in-process reducer
	// bit-for-bit. WireBitmap (float32 values) is the parameter server's
	// cheapest wire at moderate densities, and WirePairsBF16 the
	// all-gather's on a slow link; with error feedback pre-rounding to
	// either, the all-gather stays bit-identical too.
	Format Wire
	// Transport must span NodeCount(Workers, Collective) nodes. NewNode
	// requires one — typically a TCPTransport hosting this rank over the
	// deployment's shared host list; New defaults to an in-process
	// channel transport.
	//
	// A Node reuses its send buffers across exchanges under the
	// Transport's send rule, so Nodes need no barrier between rounds on
	// either transport. A TCPTransport, bare or under Instrumented and
	// FaultTransport, has copied a payload when Send returns and lends its
	// receive frames: there a Node also sends the ring's owned chunk as a
	// view and hands every frame back once read, and a steady-state
	// exchange allocates nothing. Over channels, or under a wrapper that
	// forwards only the Transport methods, received payloads are the
	// Node's to keep and the ring allocates its owned chunk per round.
	Transport Transport
	// Scenario enables the virtual-time model on the instrumented
	// transport (nil: traffic counting only). It is meaningful where one
	// process sees every rank; in a multi-process run each process only
	// sees its own clock.
	Scenario *Scenario
	// ComputeSec charges this much local work to every worker's clock at
	// the start of each exchange (scaled per node by the scenario's
	// straggler factors).
	ComputeSec float64
	// StepTimeout, when positive, bounds every blocking receive of one
	// exchange (and of one server round): a receive stuck past the
	// deadline fails the step with an error wrapping ErrTimeout — a
	// recoverable classification, unlike ErrClosed. It must comfortably
	// exceed one full step including every peer's local compute, since
	// the schedules only interlock once all peers reach the exchange.
	// 0 disables deadlines (a dead peer then blocks the step forever
	// unless the transport detects it, as TCP does).
	StepTimeout time.Duration
	// MaxStepRetries enables elastic recovery: a step that fails
	// recoverably (peer lost or receive timeout) triggers a membership
	// renegotiation among the surviving nodes — fixed mask-exchange
	// rounds over the raw transport that double as a link drain — and is
	// then retried over the agreed group, up to this many times per step.
	// The surviving workers rescale the aggregated mean to their count.
	// 0 keeps the fail-stop behaviour. Requires StepTimeout > 0: without
	// deadlines, survivors that are not adjacent to the dead peer would
	// block forever instead of joining the renegotiation. It also
	// requires at most 64 nodes: the membership view is a 64-bit mask.
	MaxStepRetries int
	// Telemetry, if non-nil, traces every round (per-node collective
	// and encode spans) and the gradient traffic on the
	// instrumented transport (per-link sent/recv message and byte
	// counters, receive-wait time), and the fault path as per-node
	// recoveries and peers-lost counters. Telemetry totals equal
	// Transport().Totals()/RecvTotals() exactly — same layer, same
	// events. Nil (the default) costs nothing.
	Telemetry *telemetry.Tracer
	// Verify makes every Engine exchange cross-check that all nodes
	// computed identical aggregates (a distributed-consistency assertion
	// for tests; it costs N-1 more d-sized aggregates and O(N*d)
	// comparisons per step — without it only rank 0, whose aggregate the
	// caller reads, decodes and reduces on the sparse collectives; the
	// other ranks just move their share of the bytes). A lone Node has
	// nothing to compare against and ignores it.
	Verify bool
}

// NodeConfig is the name Config goes by at NewNode call sites.
type NodeConfig = Config

// Validate checks the configuration — the one pre-flight every
// constructor and launcher runs, so an unsupported combination is
// refused before any transport, process or training step is spent on it.
//
//sidco:errclass config validation, deliberately fatal
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("cluster: Workers = %d, need >= 1", c.Workers)
	}
	switch c.Collective {
	case netsim.CollectiveAuto, netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS:
	default:
		return fmt.Errorf("cluster: unknown collective %v", c.Collective)
	}
	if _, err := c.Format.Format(); err != nil {
		return err
	}
	if c.StepTimeout < 0 {
		return fmt.Errorf("cluster: StepTimeout = %v, need >= 0", c.StepTimeout)
	}
	if c.MaxStepRetries < 0 {
		return fmt.Errorf("cluster: MaxStepRetries = %d, need >= 0", c.MaxStepRetries)
	}
	if c.MaxStepRetries > 0 && c.StepTimeout <= 0 {
		return fmt.Errorf("cluster: MaxStepRetries = %d requires StepTimeout > 0 (recovery needs receive deadlines to detect a dead peer from every rank)", c.MaxStepRetries)
	}
	nodes := NodeCount(c.Workers, c.Collective)
	if c.MaxStepRetries > 0 && nodes > maxMembers {
		return fmt.Errorf("cluster: MaxStepRetries = %d over %d nodes: elastic membership holds at most %d", c.MaxStepRetries, nodes, maxMembers)
	}
	if c.Rank == c.Workers && c.Collective != netsim.CollectivePS {
		return fmt.Errorf("cluster: Rank = %d is the server slot, which only CollectivePS has", c.Rank)
	}
	if c.Rank < 0 || c.Rank >= nodes {
		return fmt.Errorf("cluster: Rank = %d outside the %d-node deployment", c.Rank, nodes)
	}
	if c.Transport != nil && c.Transport.Nodes() < nodes {
		return fmt.Errorf("cluster: transport has %d nodes, need %d", c.Transport.Nodes(), nodes)
	}
	return nil
}

// NodeCount returns the transport size a configuration needs: the
// parameter-server collective adds one server node after the workers.
func NodeCount(workers int, c netsim.Collective) int {
	if c == netsim.CollectivePS {
		return workers + 1
	}
	return workers
}

// Wire selects the payload wire format. Its zero value is the lossless
// default, so Config{} trains bit-identically to the in-process path.
type Wire int

const (
	// WireLossless ships encoding.FormatPairs64: 12 bytes per element,
	// float64 values bit-for-bit.
	WireLossless Wire = iota
	// WireBitmap ships encoding.FormatBitmap: a d-bit presence bitmap
	// plus 4 bytes per element, float32 values.
	WireBitmap
	// WirePairsBF16 ships encoding.FormatPairsBF16: 6 bytes per
	// element, bfloat16 values.
	WirePairsBF16
)

// String implements fmt.Stringer; the names are what ParseWire accepts.
func (w Wire) String() string {
	switch w {
	case WireLossless:
		return "lossless"
	case WireBitmap:
		return "bitmap"
	case WirePairsBF16:
		return "pairs-bf16"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ParseWire resolves a wire format name (the String values) — the
// -format flag of cmd/sidco-node.
//
//sidco:errclass flag validation, deliberately fatal
func ParseWire(name string) (Wire, error) {
	for w := WireLossless; w <= WirePairsBF16; w++ {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown wire format %q (want lossless, bitmap or pairs-bf16)", name)
}

// Format maps the wire selector onto its encoding format.
//
//sidco:errclass config validation, deliberately fatal
func (w Wire) Format() (encoding.Format, error) {
	switch w {
	case WireLossless:
		return encoding.FormatPairs64, nil
	case WireBitmap:
		return encoding.FormatBitmap, nil
	case WirePairsBF16:
		return encoding.FormatPairsBF16, nil
	default:
		return 0, fmt.Errorf("cluster: unknown wire format %d", int(w))
	}
}

// resolveSparse resolves a round for ExchangeSparse, which runs it only when
// the aggregate is sparse by nature: a compressed selection over all-gather
// or the parameter server. A dense contribution or a ring all-reduce is not
// (ok false), and is declined. Like every round's Auto, it is resolved once
// per round from rank 0's input, never per node — per-node resolution could
// diverge on a mixed dense/sparse input set and deadlock the schedule.
func resolveSparse(c netsim.Collective, sp *tensor.Sparse) (coll netsim.Collective, ok bool) {
	coll = c.Resolve(sp != nil)
	return coll, sp != nil && coll != netsim.CollectiveRing
}

// Engine is a whole deployment in one process: NodeCount(Workers,
// Collective) Nodes, one goroutine each, bound to one shared Instrumented
// transport (in-process channels by default, or a TCPTransport hosting
// every node for loopback-socket runs). Each Exchange call hands every
// worker Node its gradient and the server Node (under PS) one round to
// serve, the Nodes run the collective as real message passing — the same
// exchange, retry and recovery code a one-rank-per-process deployment
// runs — and the agreed mean lands in the caller's buffer. Engine
// satisfies dist.GradientExchange, so it plugs directly into
// dist.TrainerConfig.Exchange. Use Node directly for one rank per
// process (cmd/sidco-node).
type Engine struct {
	cfg     Config
	tp      *Instrumented
	rounds  []chan job // one per rank (the server's last, which reads only the step)
	results chan error // one per rank per round; Node errors name their rank
	// Aggregates of ranks >= 1, dense and sparse, allocated only when a
	// round needs them (Verify, and the ring for outs).
	outs   [][]float64
	means  []tensor.Sparse
	wg     sync.WaitGroup
	closed bool
}

// New validates cfg, builds the transport and starts one Node goroutine
// per rank. Callers must Close the engine to stop them.
func New(cfg Config) (*Engine, error) {
	cfg.Rank = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := NodeCount(cfg.Workers, cfg.Collective)
	inner := cfg.Transport
	if inner == nil {
		var err error
		inner, err = NewChanTransport(nodes)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:     cfg,
		tp:      NewInstrumented(inner, cfg.Scenario).WithTelemetry(cfg.Telemetry),
		rounds:  make([]chan job, nodes),
		results: make(chan error, nodes),
		outs:    make([][]float64, cfg.Workers),
		means:   make([]tensor.Sparse, cfg.Workers),
	}
	for rank := range e.rounds {
		cfg.Rank = rank
		e.rounds[rank] = make(chan job)
		e.wg.Add(1)
		go e.rankLoop(newNode(cfg, e.tp), e.rounds[rank])
	}
	return e, nil
}

// Transport exposes the instrumented transport for traffic and
// virtual-time inspection.
func (e *Engine) Transport() *Instrumented { return e.tp }

// Close stops the node goroutines and closes the transport. The Engine
// is not concurrency-safe: Exchange and Close must come from one
// goroutine (the Trainer's step loop).
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.tp.Close()
	for _, ch := range e.rounds {
		close(ch)
	}
	e.wg.Wait()
	return err
}

// Exchange implements dist.GradientExchange: it hands every rank its
// share of the round and waits for all of them, which makes it the
// barrier between rounds. Node 0 reduces straight into agg; the other
// ranks keep an aggregate of their own only where something reads it —
// under Verify, and on the ring, which reduces in it. A rank that fails
// fatally has closed the shared transport (unblocking its peers), so the
// round drains, the engine shuts down and the first error is returned.
func (e *Engine) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	if err := e.checkExchange(ins); err != nil {
		return err
	}
	coll := e.cfg.Collective.Resolve(ins[0].Sparse != nil)
	err := e.run(step, coll, ins, len(agg), agg, nil)
	if err == nil && e.cfg.Verify {
		for w := 1; w < e.cfg.Workers && err == nil; w++ {
			for i := range agg {
				if e.outs[w][i] != agg[i] {
					err = fmt.Errorf("cluster: node %d disagrees with node 0 at element %d: %v vs %v",
						w, i, e.outs[w][i], agg[i])
					break
				}
			}
		}
	}
	return e.failStop(err)
}

// ExchangeSparse implements dist.SparseExchange: on a round of compressed
// selections over all-gather or the parameter server, rank 0 leaves the
// merged sparse mean in mean and no rank touches anything of the model's
// dimension; under Verify every rank merges one and they are compared
// element for element. Any other round is declined before a byte moves.
func (e *Engine) ExchangeSparse(step int, ins []dist.ExchangeInput, mean *tensor.Sparse) (bool, error) {
	if err := e.checkExchange(ins); err != nil {
		return false, err
	}
	coll, ok := resolveSparse(e.cfg.Collective, ins[0].Sparse)
	if !ok {
		return false, nil
	}
	err := e.run(step, coll, ins, ins[0].Sparse.Dim, nil, mean)
	if err == nil && e.cfg.Verify {
		for w := 1; w < e.cfg.Workers && err == nil; w++ {
			err = sameSparse(w, &e.means[w], mean)
		}
	}
	return true, e.failStop(err)
}

// sameSparse is Verify's comparison of rank w's merged mean with rank 0's.
//
//sidco:errclass Verify's consistency assertion, deliberately fatal
func sameSparse(w int, got, want *tensor.Sparse) error {
	if got.Dim != want.Dim || len(got.Idx) != len(want.Idx) {
		return fmt.Errorf("cluster: node %d disagrees with node 0: %d of %d elements vs %d of %d",
			w, len(got.Idx), got.Dim, len(want.Idx), want.Dim)
	}
	for i, j := range want.Idx {
		if got.Idx[i] != j || got.Vals[i] != want.Vals[i] {
			return fmt.Errorf("cluster: node %d disagrees with node 0 at stored element %d: (%d, %v) vs (%d, %v)",
				w, i, got.Idx[i], got.Vals[i], j, want.Vals[i])
		}
	}
	return nil
}

// checkExchange refuses an exchange the engine cannot run.
func (e *Engine) checkExchange(ins []dist.ExchangeInput) error {
	if e.closed {
		return fmt.Errorf("cluster: exchange on closed engine: %w", ErrClosed)
	}
	if len(ins) != e.cfg.Workers {
		return fmt.Errorf("cluster: %d inputs for %d workers", len(ins), e.cfg.Workers) //sidco:errclass caller misuse, deliberately fatal
	}
	return nil
}

// run hands every rank its round and returns the first error once all have
// reported. Rank 0 reduces into the caller's destination — agg or mean,
// whichever is set; the other workers get one of their own of the same kind
// only where something reads it (Verify, and the ring, which reduces in it).
func (e *Engine) run(step int, coll netsim.Collective, ins []dist.ExchangeInput, dim int, agg []float64, mean *tensor.Sparse) error {
	for rank, ch := range e.rounds {
		rd := job{step: step, coll: coll, dim: dim}
		if rank < e.cfg.Workers {
			rd.sparse, rd.dense = ins[rank].Sparse, ins[rank].Dense
		}
		switch {
		case rank == 0:
			rd.out, rd.mean = agg, mean
		case rank >= e.cfg.Workers:
			// the server: serves the step, keeps no aggregate
		case agg != nil && (e.cfg.Verify || coll == netsim.CollectiveRing):
			if len(e.outs[rank]) != dim {
				e.outs[rank] = make([]float64, dim)
			}
			rd.out = e.outs[rank]
		case mean != nil && e.cfg.Verify:
			rd.mean = &e.means[rank]
		}
		ch <- rd
	}
	var firstErr error
	for range e.rounds {
		if err := <-e.results; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// failStop closes the engine on a failed round and passes the error on: a
// broken round leaves stray messages in the transport, so the engine cannot
// safely run another schedule.
func (e *Engine) failStop(err error) error {
	if err != nil {
		e.Close()
	}
	return err
}

// rankLoop is the goroutine body of one rank: a round per Exchange,
// served by the server Node and exchanged by a worker Node.
func (e *Engine) rankLoop(nd *Node, rounds <-chan job) {
	defer e.wg.Done()
	for rd := range rounds {
		if nd.cfg.Rank == e.cfg.Workers {
			e.results <- nd.serveRound(rd.step)
		} else {
			e.results <- nd.exchange(rd)
		}
	}
}
