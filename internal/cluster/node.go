package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// job is one worker node's share of a gradient exchange.
type job struct {
	step   int
	sparse *tensor.Sparse // nil on the dense path
	dense  []float64
	dim    int
	// deadline, when non-zero, bounds every blocking receive of the
	// schedule run; a receive past it fails with ErrTimeout.
	deadline time.Time
	// Where the aggregated mean goes. out (dim elements) takes it dense; the
	// ring reduces in out itself and always needs it. mean, on the sparse
	// collectives, takes it as the merged sparse vector and nothing dim-sized
	// is touched. With neither, the node sends, forwards and receives its
	// whole share of the schedule but neither decodes nor reduces what
	// arrives: an Engine rank whose aggregate nobody reads (the rank that
	// does keep one is handed the same bytes). apply, on the ring only,
	// takes the mean chunk by chunk where it lands instead, out being the
	// ring's working storage (dist.ApplyExchange).
	out   []float64
	mean  *tensor.Sparse
	apply func(off int, mean []float64)
}

// meanInto names where the round's merged sparse mean goes: the caller's
// vector, the node's scratch on the way to a dense out, or nil when nobody
// reads the aggregate.
func (jb job) meanInto(scratch *tensor.Sparse) *tensor.Sparse {
	if jb.mean == nil && jb.out != nil {
		return scratch
	}
	return jb.mean
}

// nodeScratch is one node's reusable storage: the encode buffer and the
// all-gather's second one, the all-gather result slots, one decode target
// per origin, the round's merged mean, and the identity index ramp backing
// dense-as-sparse views.
type nodeScratch struct {
	enc []byte
	// encPrev is the payload of the node's last all-gather round, which a
	// peer may still be decoding; exchange swaps it with enc at the start
	// of every all-gather round.
	encPrev []byte
	gather  [][]byte
	// ringSrc keeps a dense gradient the ring reduces over in place
	// (job.out aliasing job.dense) for a retry to start from again: only
	// a node that may retry allocates it.
	ringSrc []float64
	full    tensor.Sparse // full-support view of a dense gradient
	ident   []int32       // 0..dim-1 ramp for dense-as-sparse views

	// Decoded origins and their merge under all-gather.
	reduceBufs
}

// runWorker executes this worker node's half of one exchange, leaving the
// aggregated mean where the job says. The whole round is traced as one
// collective span per node.
func (n *Node) runWorker(jb job) error {
	span := n.cfg.Telemetry.Begin(telemetry.SpanCollective, n.cfg.Rank, -1, int64(jb.step))
	err := n.runCollective(jb)
	span.End()
	return err
}

func (n *Node) runCollective(jb job) error {
	w, sc, out := n.cfg.Rank, &n.sc, jb.out
	if n.cfg.ComputeSec > 0 {
		n.tp.Compute(w, n.cfg.ComputeSec)
	}
	members := n.workers
	recv := interceptRecv(n.tp, jb.deadline)
	switch n.cfg.Collective {
	case netsim.CollectiveRing:
		// Dense in-ring reduction of the local dense gradient into the
		// mean; a sparse selection (a compressing trainer on a ring
		// deployment) is densified into out and reduced in place.
		src := jb.dense
		if jb.sparse != nil {
			tensor.Zero(out)
			jb.sparse.AddTo(out)
			src = out
		}
		return ringAllReduceGroup(n.tp, recv, members, w, src, out, jb.apply)

	case netsim.CollectiveAllGather:
		return n.runAllGather(jb)

	case netsim.CollectivePS:
		if _, err := n.encodeLocal(jb); err != nil {
			return err
		}
		if err := n.tp.Send(w, n.server, sc.enc); err != nil {
			return err
		}
		reply, err := recv(w, n.server)
		if err != nil {
			return err
		}
		err = n.takeReply(jb, reply)
		release(n.rel, w, n.server, reply)
		return err
	}
	return fmt.Errorf("unreachable collective") //sidco:errclass internal invariant, deliberately fatal
}

// takeReply leaves the server's reply where the job says: decoded into the
// merged mean, or straight into a dense out (encoding.DecodeDenseInto,
// nothing sparse in between).
func (n *Node) takeReply(jb job, reply []byte) error {
	switch {
	case jb.mean != nil:
		if err := encoding.DecodeInto(jb.mean, reply); err != nil {
			return fmt.Errorf("decoding server reply: %w", err)
		}
		if jb.mean.Dim != jb.dim {
			return fmt.Errorf("server reply has dim %d, want %d", jb.mean.Dim, jb.dim) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
		}
	case jb.out != nil:
		if err := encoding.DecodeDenseInto(jb.out, reply); err != nil {
			return fmt.Errorf("decoding server reply: %w", err)
		}
	}
	return nil // with neither, took delivery; rank 0 decodes the same bytes
}

// runAllGather executes the sparse all-gather for one node: encode the
// local selection once, circulate the payloads, decode every origin and
// merge them in worker-index order (tensor.MeanSparseInto) — for every
// element the same operation sequence as dist.InProcess over a lossless
// wire. A dense out is zeroed and has the merged mean assigned into it;
// without one aggregation costs O(k*N) and nothing scales with d.
func (n *Node) runAllGather(jb job) error {
	sc, members := &n.sc, n.workers
	own, err := n.encodeLocal(jb)
	if err != nil {
		return err
	}
	sc.gather, err = allGatherGroup(n.tp, interceptRecv(n.tp, jb.deadline), members, n.cfg.Rank, sc.enc, sc.gather)
	if err != nil {
		return err
	}
	err = n.mergeGathered(jb, own)
	releaseGathered(n.rel, members, n.cfg.Rank, sc.gather)
	return err
}

// mergeGathered decodes the gathered payloads and merges them into the
// job's mean, and a dense out. Over the lossless wire, whose round trip
// is the identity, the node's own contribution is merged as own, the
// vector it encoded, instead of decoded back from its payload.
func (n *Node) mergeGathered(jb job, own *tensor.Sparse) error {
	sc, members := &n.sc, n.workers
	mean := jb.meanInto(&sc.mean)
	if mean == nil {
		return nil // forwarded its share; rank 0 decodes the same bytes
	}
	parts := sc.grow(len(members))
	self := -1
	if n.cfg.wireFormat() == encoding.FormatPairs64 && own != mean { // the merge must not read what it writes
		self = slices.Index(members, n.cfg.Rank)
	}
	for origin := range members {
		p := &parts[origin]
		if origin == self {
			p = own
		} else if err := encoding.DecodeInto(p, sc.gather[origin]); err != nil {
			return fmt.Errorf("decoding origin %d: %w", members[origin], err)
		}
		if p.Dim != jb.dim {
			return fmt.Errorf("origin %d has dim %d, want %d", members[origin], p.Dim, jb.dim) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
		}
	}
	// own takes its slot for the merge; the slot keeps its storage.
	var slot tensor.Sparse
	if self >= 0 {
		slot, parts[self] = parts[self], *own
	}
	tensor.MeanSparseInto(mean, parts)
	if self >= 0 {
		parts[self] = slot
	}
	if out := jb.out; out != nil {
		tensor.Zero(out)
		scatter(mean, out)
	}
	return nil
}

// encodeLocal encodes this worker's contribution into sc.enc, traced as
// one encode span, and returns the contribution.
func (n *Node) encodeLocal(jb job) (*tensor.Sparse, error) {
	sp, err := n.localSparse(jb)
	if err != nil {
		return nil, err
	}
	format := n.cfg.wireFormat()
	es := n.cfg.Telemetry.Begin(telemetry.SpanEncode, n.cfg.Rank, -1, int64(jb.step)).WithValue(int64(format))
	n.sc.enc, err = encoding.EncodeTo(n.sc.enc[:0], sp, format)
	es.End()
	return sp, err
}

// scatter assigns s's stored elements into the dense out, which has
// s.Dim elements (callers check the dimension of everything they decode).
//
//sidco:hotpath
func scatter(s *tensor.Sparse, out []float64) {
	for i, j := range s.Idx {
		out[j] = s.Vals[i]
	}
}

// localSparse resolves a worker's contribution to a sparse vector
// without copying: compressed gradients are used as-is, dense gradients
// get a full-support view over the scratch's index ramp, so even the
// no-compression baseline moves real encoded bytes.
func (n *Node) localSparse(jb job) (*tensor.Sparse, error) {
	sc := &n.sc
	if jb.sparse != nil {
		return jb.sparse, nil
	}
	if len(jb.dense) != jb.dim {
		return nil, fmt.Errorf("dense gradient has %d elements, want %d", len(jb.dense), jb.dim) //sidco:errclass geometry violation means a buggy caller, deliberately fatal
	}
	for i := len(sc.ident); i < jb.dim; i++ {
		sc.ident = append(sc.ident, int32(i))
	}
	sc.full = tensor.Sparse{Dim: jb.dim, Idx: sc.ident[:jb.dim], Vals: jb.dense}
	return &sc.full, nil
}

// reduceBufs is a reducer's decode-and-merge storage, reused across
// rounds: one decode target per contributor and their merged mean.
type reduceBufs struct {
	parts []tensor.Sparse // decoded contributions, by member position
	mean  tensor.Sparse
}

// grow returns n decode targets, keeping the storage the first of them
// already own.
func (b *reduceBufs) grow(n int) []tensor.Sparse {
	b.parts = b.parts[:cap(b.parts)]
	for len(b.parts) < n {
		b.parts = append(b.parts, tensor.Sparse{})
	}
	b.parts = b.parts[:n]
	return b.parts
}

// psServer is the parameter-server node's reusable aggregation state,
// kept on the server Node across rounds: the held pushes, one decode
// target per worker and their merged mean (the decoding route), the
// bitmap merge's read state, and the reply's encoding.
type psServer struct {
	reduceBufs
	pushes [][]byte
	bitmap encoding.MeanBitmap
	wire   []byte
}

// round serves one parameter-server exchange: receive every surviving
// worker's push in worker-index order, merge them into their mean over the
// surviving count, and broadcast it. Every push must be in the
// deployment's wire format, of the first push's dimension.
//
// Merging in worker-index order keeps the mean bit-identical to the
// in-process reducer. A bitmap round merges the pushes where they landed
// (encoding.MeanBitmap), the bytes the decoding route gives. Exact-zero
// sums drop out of the reply; decoding restores them as zeros, so the
// round-trip is value-preserving. The reply buffer is broadcast to every
// worker and read within the round, so recycling it across rounds is
// safe: the round barrier ends before reuse.
func (s *psServer) round(tp Transport, recv linkRecv, server int, workers []int, format encoding.Format) error {
	reduce := func(pushes [][]byte) ([]byte, error) {
		var err error
		if format == encoding.FormatBitmap {
			if s.wire, err = s.bitmap.AppendTo(s.wire[:0], pushes); err != nil {
				return nil, refusedPush(workers, err)
			}
			return s.wire, nil
		}
		parts := s.grow(len(pushes))
		for pos, payload := range pushes {
			err := decodePush(&parts[pos], payload, format)
			if err == nil && parts[pos].Dim != parts[0].Dim {
				err = fmt.Errorf("pushed dim %d, want %d", parts[pos].Dim, parts[0].Dim) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
			}
			if err != nil {
				return nil, fmt.Errorf("worker %d: %w", workers[pos], err) //sidco:errclass wire or geometry violation means a buggy peer, deliberately fatal
			}
		}
		tensor.MeanSparseInto(&s.mean, parts)
		s.wire, err = encoding.EncodeTo(s.wire[:0], &s.mean, format)
		return s.wire, err
	}
	var err error
	s.pushes, err = psServeGroup(tp, recv, server, workers, s.pushes, reduce)
	return err
}

// refusedPush names the worker whose push the bitmap merge refused. It is
// a function of its own because errors.As's target escapes to the heap:
// only a refused round may pay that allocation.
//
//sidco:errclass wire or geometry violation means a buggy peer, deliberately fatal
func refusedPush(workers []int, err error) error {
	var pe *encoding.PushError
	if errors.As(err, &pe) {
		return fmt.Errorf("worker %d: %w", workers[pe.Push], pe.Err)
	}
	return err
}

// decodePush decodes one push on the decoding route into part, refusing a
// push not in the deployment's format.
func decodePush(part *tensor.Sparse, payload []byte, format encoding.Format) error {
	if len(payload) > 0 && encoding.Format(payload[0]) != format {
		return fmt.Errorf("pushed format %v, the deployment ships %v", encoding.Format(payload[0]), format) //sidco:errclass wire violation means a buggy peer, deliberately fatal
	}
	return encoding.DecodeInto(part, payload)
}

// Node is one rank of a deployment (Config.Rank): the unit cmd/sidco-node
// runs one of per process, and the unit Engine runs all of in one
// process. A worker Node (Rank < Workers) satisfies dist.GradientExchange
// for a single local worker — plug it into a Workers=1 dist.Trainer whose
// FirstWorker is this rank and the process trains global worker Rank,
// exchanging real bytes with its peers. The server Node of a
// parameter-server deployment (Rank == Workers) runs Serve instead.
//
// Exchange leaves the global mean over all Workers contributions in agg,
// so the local optimizer applies exactly the update every peer applies:
// replicas that start from identical weights stay identical, and the
// whole deployment reproduces bit-for-bit the in-process trainer over
// Reference(cfg).
type Node struct {
	cfg    Config
	server int           // server node id under PS, else -1
	tp     *Instrumented // shared with every other Node of an Engine
	raw    Transport
	rel    releaser // raw's release capability, nil when it has none
	sc     nodeScratch
	srv    psServer // server rank only
	scalar [8]byte
	sgath  [][]byte
	closed bool

	// Elastic-membership state: the agreed participant list (worker node
	// ids plus the server id under PS), its worker members, the
	// renegotiation epoch, and the stash of membership frames consumed
	// out-of-band.
	group   []int
	workers []int
	epoch   uint32
	ng      negotiator
}

// NewNode validates cfg and binds the node to its transport.
//
//sidco:errclass construction-time config validation, deliberately fatal
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: Node requires a Transport (use Engine for the in-process default)")
	}
	return newNode(cfg, NewInstrumented(cfg.Transport, cfg.Scenario).WithTelemetry(cfg.Telemetry)), nil
}

// newNode binds rank cfg.Rank of an already validated cfg to tp, which
// Engine shares between all its Nodes.
func newNode(cfg Config, tp *Instrumented) *Node {
	n := &Node{cfg: cfg, server: -1, tp: tp, raw: tp.inner, rel: tp.rel}
	if cfg.Collective == netsim.CollectivePS {
		n.server = cfg.Workers
	}
	n.adopt(identityMembers(NodeCount(cfg.Workers, cfg.Collective)))
	return n
}

// adopt installs an agreed participant list and derives its worker
// members (the group minus the server node, ascending) once, so the
// per-step paths never rebuild it.
func (n *Node) adopt(group []int) {
	n.group, n.workers = group, group
	if n.server >= 0 {
		n.workers = make([]int, 0, len(group))
		for _, id := range group {
			if id < n.cfg.Workers {
				n.workers = append(n.workers, id)
			}
		}
	}
}

// Transport exposes the node's instrumented transport: its counters see
// this process's gradient traffic (sends from and receives at this
// rank), which is what a per-node traffic cross-check compares against
// the per-node share of netsim's collective formulas.
func (n *Node) Transport() *Instrumented { return n.tp }

// Exchange implements dist.GradientExchange for the single local worker:
// ins must hold exactly one input — this rank's contribution — and agg
// receives the global mean over all Workers contributions. Every worker
// process must call Exchange for the same step, or the interlocked
// schedules deadlock; the transport's per-link FIFO keeps successive steps
// from interleaving.
func (n *Node) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	if err := n.checkExchange(ins); err != nil {
		return err
	}
	return n.exchange(job{step: step, sparse: ins[0].Sparse, dense: ins[0].Dense, dim: len(agg), out: agg})
}

// ExchangeSparse implements dist.SparseExchange: when this rank's
// contribution is a compressed selection and the collective is
// all-gather or the parameter server, mean receives the global mean as the
// merged sparse vector those collectives build anyway and nothing of the
// model's dimension is cleared or written. Any other round — the ring, a
// dense contribution — is declined before a byte moves.
func (n *Node) ExchangeSparse(step int, ins []dist.ExchangeInput, mean *tensor.Sparse) (bool, error) {
	if err := n.checkExchange(ins); err != nil {
		return false, err
	}
	sp := ins[0].Sparse
	if !sparseRound(n.cfg.Collective, sp) {
		return false, nil
	}
	return true, n.exchange(job{step: step, sparse: sp, dim: sp.Dim, mean: mean})
}

// ExchangeApply implements dist.ApplyExchange: when the collective is the
// ring all-reduce, it runs in agg (which may be the dense gradient itself;
// a node that may retry keeps a copy of it to start a retry from) and
// apply gets each chunk of the mean
// where it lands — the chunks this node owned or forwarded from agg, the
// last one received from its frame — once the round's last receive has
// succeeded, so a failed attempt, retried over a renegotiated group or
// returned, has applied nothing. Any other round is declined before a byte
// moves.
func (n *Node) ExchangeApply(step int, ins []dist.ExchangeInput, agg []float64, apply func(off int, mean []float64)) (bool, error) {
	if err := n.checkExchange(ins); err != nil {
		return false, err
	}
	if n.cfg.Collective != netsim.CollectiveRing {
		return false, nil
	}
	return true, n.exchange(job{step: step, sparse: ins[0].Sparse, dense: ins[0].Dense, dim: len(agg), out: agg, apply: apply})
}

// checkExchange refuses an exchange this node cannot run: a closed node,
// the server rank, or inputs that are not exactly this rank's worker.
func (n *Node) checkExchange(ins []dist.ExchangeInput) error {
	if n.closed {
		return fmt.Errorf("cluster: exchange on closed node: %w", ErrClosed)
	}
	if n.cfg.Rank >= n.cfg.Workers {
		return fmt.Errorf("cluster: exchange on the server node (rank %d); run Serve instead", n.cfg.Rank) //sidco:errclass caller misuse, deliberately fatal
	}
	if len(ins) != 1 {
		return fmt.Errorf("cluster: node exchange got %d inputs, hosts exactly 1 worker", len(ins)) //sidco:errclass caller misuse, deliberately fatal
	}
	if ins[0].Worker != n.cfg.Rank {
		return fmt.Errorf("cluster: node %d handed worker %d's gradient (is the trainer's FirstWorker set to the rank?)", n.cfg.Rank, ins[0].Worker) //sidco:errclass caller misuse, deliberately fatal
	}
	return nil
}

// exchange runs this worker's share of one round (jb.deadline set here
// per attempt), retrying over the
// renegotiated group while the failure is recoverable and retries remain.
func (n *Node) exchange(jb job) error {
	// Tag the round's telemetry message events with the step before the
	// first send: rounds are synchronous, so no message of another step
	// is in flight on this node's links.
	n.tp.SetStep(int64(jb.step))
	if n.cfg.Collective == netsim.CollectiveAllGather {
		// Every peer decodes this node's payload after its own gather, so
		// one may still be reading last round's. The buffer of the round
		// before is free (the Transport's reuse rule): every peer's last
		// payload has arrived here, each sent after that peer decoded this
		// node's payload of that round. Swapped per round, not per
		// attempt: a retry follows a renegotiation with every survivor.
		n.sc.enc, n.sc.encPrev = n.sc.encPrev, n.sc.enc
	}
	if n.cfg.MaxStepRetries > 0 && len(jb.dense) > 0 && len(jb.out) > 0 && &jb.dense[0] == &jb.out[0] {
		// The ring reduces in the gradient itself: a retry must start from
		// the gradient as it was, not from a failed attempt's partial sums.
		if len(n.sc.ringSrc) != len(jb.dense) {
			n.sc.ringSrc = make([]float64, len(jb.dense)) //sidco:alloc first in-place round of a node that may retry
		}
		copy(n.sc.ringSrc, jb.dense)
		jb.dense = n.sc.ringSrc
	}
	for attempt := 0; ; attempt++ {
		jb.deadline = n.stepDeadline()
		err := n.runWorker(jb)
		if err == nil {
			return nil
		}
		if err = n.recoverOrFail(attempt, err); err != nil {
			return err
		}
	}
}

// stepDeadline computes the receive deadline of one schedule run.
//
//sidco:nondet fault-detection deadline, never feeds gradient math
func (n *Node) stepDeadline() time.Time {
	if n.cfg.StepTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(n.cfg.StepTimeout)
}

// recoverOrFail decides what a failed attempt means: nil after a
// successful membership recovery (run the step again), otherwise the
// node's final error. Fail-stop: a broken round leaves stray messages on
// the links, so the node closes its transport — which also unblocks any
// peer sharing it — and cannot run another schedule.
func (n *Node) recoverOrFail(attempt int, err error) error {
	if Recoverable(err) && attempt < n.cfg.MaxStepRetries {
		rerr := n.recover(err)
		if rerr == nil {
			return nil
		}
		err = fmt.Errorf("recovery after %v: %w", err, rerr)
	}
	n.Close()
	return fmt.Errorf("cluster: node %d: %w", n.cfg.Rank, err)
}

// recover handles a recoverable step failure: renegotiate membership
// with the survivors (seeding the protocol with a frame the failing
// receive may already have consumed) and validate that the agreed group
// can still train. The renegotiation timeout is twice the step timeout:
// a survivor adjacent to the dead peer fails fast, one waiting on a
// forwarded payload only after a full step timeout. An agreed view is
// counted on the node's telemetry: one recovery, and the members it
// dropped as peers lost.
func (n *Node) recover(cause error) error {
	var pr *peerRenegotiating
	if errors.As(cause, &pr) {
		n.ng.note(pr.from, pr.frame)
	}
	timeout := 2 * n.cfg.StepTimeout
	view, err := n.ng.renegotiate(n.raw, n.cfg.Rank, n.group, n.epoch+1, timeout)
	if err != nil {
		return err
	}
	n.cfg.Telemetry.Count(telemetry.CounterRecoveries, n.cfg.Rank, -1, 1)
	n.cfg.Telemetry.Count(telemetry.CounterPeersLost, n.cfg.Rank, -1, int64(len(n.group)-len(view)))
	n.epoch++
	n.adopt(view)
	if n.server >= 0 && memberPos(view, n.server) < 0 {
		return fmt.Errorf("cluster: parameter server lost — a PS deployment cannot recover without its server") //sidco:errclass lost server is unrecoverable under PS, deliberately fatal
	}
	if len(n.workers) < 1 {
		return fmt.Errorf("cluster: no workers left in the renegotiated group %v", view) //sidco:errclass empty worker set is unrecoverable, deliberately fatal
	}
	return nil
}

// MeanScalar all-reduces one scalar across the worker nodes and returns
// the mean, summed in worker-index order — the reduction that makes the
// global training loss of a multi-process run bit-identical to the
// in-process trainer's. It rides the raw transport, not the
// instrumented one: loss reporting is diagnostics, so it never pollutes
// the gradient-traffic counters the netsim cross-checks compare.
func (n *Node) MeanScalar(x float64) (float64, error) {
	if n.closed {
		return 0, fmt.Errorf("cluster: scalar reduce on closed node: %w", ErrClosed)
	}
	if n.cfg.Rank >= n.cfg.Workers {
		return 0, fmt.Errorf("cluster: scalar reduce on the server node (rank %d)", n.cfg.Rank) //sidco:errclass caller misuse, deliberately fatal
	}
	binary.LittleEndian.PutUint64(n.scalar[:], math.Float64bits(x))
	for attempt := 0; ; attempt++ {
		members := n.workers
		if len(members) == 1 {
			return x, nil
		}
		recv := interceptRecv(n.raw, n.stepDeadline())
		sgath, err := allGatherGroup(n.raw, recv, members, n.cfg.Rank, n.scalar[:], n.sgath)
		if err == nil {
			n.sgath = sgath
			sum, err := scalarSum(members, sgath)
			releaseGathered(n.rel, members, n.cfg.Rank, sgath)
			if err != nil {
				n.Close()
				return 0, fmt.Errorf("cluster: node %d scalar reduce: %w", n.cfg.Rank, err)
			}
			return sum * (1 / float64(len(members))), nil
		}
		if err = n.recoverOrFail(attempt, fmt.Errorf("scalar reduce: %w", err)); err != nil {
			return 0, err
		}
	}
}

// scalarSum sums the gathered scalars in member order.
func scalarSum(members []int, sgath [][]byte) (float64, error) {
	sum := 0.0
	for pos, p := range sgath {
		if len(p) != 8 {
			return 0, fmt.Errorf("origin %d payload has %d bytes", members[pos], len(p)) //sidco:errclass geometry violation means a buggy peer, deliberately fatal
		}
		sum += math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return sum, nil
}

// Serve runs the parameter-server loop (Rank == Workers): exactly rounds
// aggregation rounds, one per worker exchange, tagged first, first+1, … —
// the steps the workers run, so a deployment resumed from a checkpoint
// passes the checkpoint's step and the server's telemetry lines up with
// theirs. The server is told the step count every worker was told, so a
// fixed-iteration deployment shuts down deterministically; a round that
// fails — the transport closed under it included — is an error.
func (n *Node) Serve(first, rounds int) error {
	if n.cfg.Rank != n.cfg.Workers {
		return fmt.Errorf("cluster: Serve on rank %d, want the server rank %d under PS", n.cfg.Rank, n.cfg.Workers) //sidco:errclass caller misuse, deliberately fatal
	}
	for step := first; step < first+rounds; step++ {
		if err := n.serveRound(step); err != nil {
			return err
		}
	}
	return nil
}

// serveRound serves the parameter-server round of one step. The receive
// deadline and the step tag are taken when the round starts, so time the
// server spends idle between rounds never counts against StepTimeout.
func (n *Node) serveRound(step int) error {
	n.tp.SetStep(int64(step))
	for attempt := 0; ; attempt++ {
		span := n.cfg.Telemetry.Begin(telemetry.SpanCollective, n.cfg.Rank, -1, int64(step))
		recv := interceptRecv(n.tp, n.stepDeadline())
		err := n.srv.round(n.tp, recv, n.server, n.workers, n.cfg.wireFormat())
		span.End()
		if err == nil {
			return nil
		}
		if err = n.recoverOrFail(attempt, err); err != nil {
			return err
		}
	}
}

// Close marks the node closed and closes its transport. Safe to call
// more than once.
func (n *Node) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	return n.tp.Close()
}
