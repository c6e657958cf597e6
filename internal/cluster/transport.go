// Package cluster is the message-passing collective-communication layer
// of the reproduction: where internal/netsim prices gradient exchanges
// analytically, this package executes them — goroutine-per-node workers
// serialise compressed gradients with internal/encoding and move real
// byte buffers through a pluggable Transport.
//
// Three collectives are implemented as explicit message schedules over
// any Transport: ring all-reduce for dense gradients (2(N-1) messages
// per node), ring all-gather for sparse gradients (N-1 messages per
// node), and a central parameter server (2N messages total). An
// Instrumented transport wrapper counts messages and bytes per directed
// link — cross-validating netsim's collective step formulas against
// observed traffic — and, given a Scenario, runs an alpha-beta
// virtual-time model with per-link bandwidth overrides and per-node
// straggler factors.
//
// Two transports ship: ChanTransport moves payloads over in-process
// channels, and TCPTransport moves length-prefix-framed payloads over
// real sockets, one listener per hosted node — the implementation the
// Transport interface always promised. A multi-process deployment runs
// one node per OS process (cmd/sidco-node), each holding a TCPTransport
// over a shared host list.
//
// Node ties the schedules to training: it is one rank of a deployment
// and satisfies dist.GradientExchange for that rank's worker, so one
// Node plus a Workers=1 Trainer per process trains over TCP. Engine is
// the whole deployment in one process — one Node per rank, all on one
// Instrumented transport — and satisfies dist.GradientExchange for all
// N workers, so a dist.Trainer can swap its in-process reducer for a
// real exchange. Over the lossless FormatPairs64 wire format the
// all-gather and parameter-server collectives sum decoded contributions
// in worker-index order, reproducing the in-process trainer's losses
// bit-for-bit either way.
//
// The package also survives dead peers. Errors classify into a
// recoverable class (ErrPeerLost, ErrTimeout — see Recoverable) and the
// fatal local-shutdown class (ErrClosed). The deadline-bounded receive
// (RecvTimeout) is part of the Transport contract, so Config.StepTimeout
// bounds every schedule receive on every transport, and
// Config.MaxStepRetries enables elastic membership: survivors of a
// recoverable failure agree on the live member set (a fixed-round mask
// exchange that doubles as a link drain), re-run the step over the
// surviving group, and rescale the aggregate to the survivor count.
// FaultTransport injects deterministic link/node failures for tests, and
// dist's checkpointing restores a killed rank's training state for
// rejoin.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is wrapped by every transport error caused by Close rather
// than by an invalid operation: schedule code distinguishes an engine
// shutdown (expected, e.g. the parameter-server loop draining) from a
// genuine failure with errors.Is(err, ErrClosed).
var ErrClosed = errors.New("transport closed")

// ErrPeerLost is wrapped by transport errors caused by a remote peer
// dying or dropping a link while the local transport stays healthy: the
// TCP reader poisons a link whose connection broke, and FaultTransport
// synthesizes the same failure on its deterministic kill schedule.
// Unlike ErrClosed it is a *recoverable* condition — the surviving
// members can renegotiate the group and retry the step.
var ErrPeerLost = errors.New("peer lost")

// ErrTimeout is wrapped by RecvTimeout errors caused by the deadline
// expiring before a payload arrived. Like ErrPeerLost it classifies as
// recoverable: a peer that stalls past the per-step timeout is treated
// exactly like a dead one (it may be excluded and the step retried).
var ErrTimeout = errors.New("receive timed out")

// Recoverable reports whether a schedule error names a condition the
// fault-tolerance layer can recover from by renegotiating membership
// and retrying the step: a lost peer or a receive timeout. ErrClosed
// (local shutdown) and validation errors are not recoverable.
func Recoverable(err error) bool {
	return errors.Is(err, ErrPeerLost) || errors.Is(err, ErrTimeout)
}

// TimeoutRecver is the deadline-bounded receive the per-step timeout
// rides on; every Transport has it. RecvTimeout behaves like Recv but
// fails with an error wrapping ErrTimeout once the timeout elapses with
// no payload deliverable, and a timeout <= 0 polls: a payload already
// queued is returned, else the call fails at once. A timed-out call
// consumes nothing — a payload arriving later stays queued for the next
// receive, preserving per-link FIFO — and a closed, empty link reports
// ErrClosed, never ErrTimeout.
type TimeoutRecver interface {
	RecvTimeout(to, from int, timeout time.Duration) ([]byte, error)
}

// Transport moves opaque byte payloads between numbered nodes over
// directed links. Implementations must preserve per-link FIFO order.
//
// The send rule. A transport need not copy a payload (ChanTransport hands
// the receiver the sender's slice), so a sent buffer stays the sender's to
// read but not to write: the sender may reuse it only after receiving a
// message that the receiver sent after it took the buffer, or one sent by
// a node that had received such a message, and so on. Two schedules rely
// on the rule: the ring all-reduce sends views of the caller's gradient
// and mean (ringAllReduceGroup), and a node's all-gather alternates two
// encode buffers, because every peer decodes a payload after its own
// gather (Node.exchange).
//
// The receive rule. No receiver writes a received payload; it may read it
// and forward it with Send. By default a payload is the receiver's to keep
// (over channels it is the sender's buffer, read-only). A transport that
// lends its receive frames (a releaser: TCPTransport, and a wrapper over
// one, see releaserOf) keeps ownership instead: the payload is the
// receiver's until it hands it back with Release, after its last read and
// after any Send of it has returned. It is released at most once, and from
// then on only the transport writes it, reading the link's next frame into
// it. A missed release is always safe: the frame is garbage collected and
// the link reads into a fresh one.
//
// Close semantics are deterministic, so a schedule torn down mid-flight
// fails the same way every run: delivery is preferred over the shutdown
// error. A receive whose payload was already delivered locally returns
// that payload, not the close error or a timeout; a Send that has free
// link capacity at the moment it observes the close still completes (the
// payload is simply never read). Operations fail with an error wrapping
// ErrClosed only when the transport is closed AND the operation would
// have to block. TCPTransport matches this contract on the receive side
// exactly; its sends additionally fail once the underlying sockets are
// torn down.
type Transport interface {
	// Nodes returns the number of addressable nodes.
	Nodes() int
	// Send delivers payload on the directed link from -> to. It may
	// block until link capacity frees up; it errors once the transport
	// is closed (and the link has no free capacity) or on an invalid
	// node id.
	Send(from, to int, payload []byte) error
	// Recv blocks until a payload arrives on the link from -> to, and
	// errors once the transport is closed (and no payload is
	// deliverable) or on an invalid node id. It starts no timer.
	Recv(to, from int) ([]byte, error)
	// TimeoutRecver is Recv bounded by a timeout (<= 0 polls).
	TimeoutRecver
	// Close tears the transport down, unblocking pending operations.
	Close() error
}

// releaser is the optional half of the receive rule (see Transport): a
// transport that lends its receive frames takes them back with Release.
// Lending implies copying: such a transport has copied a payload by the
// time its Send returns, so the sender may write the buffer at once.
type releaser interface {
	// Release hands back p, a payload received on link from -> to.
	// Releasing nil or after Close does nothing.
	Release(to, from int, p []byte)
}

// releaseForwarder is a wrapper whose release capability is its inner
// transport's, resolved once when the wrapper is built: a method set
// cannot say whether the inner transport has one.
type releaseForwarder interface {
	innerReleaser() releaser
}

// releaserOf resolves tp's release capability: nil unless tp, or the
// transport its wrappers end in, lends its receive frames.
func releaserOf(tp Transport) releaser {
	if w, ok := tp.(releaseForwarder); ok {
		return w.innerReleaser()
	}
	r, _ := tp.(releaser)
	return r
}

// release hands p back on link from -> to when rel lends frames.
func release(rel releaser, to, from int, p []byte) {
	if rel != nil {
		rel.Release(to, from, p)
	}
}

// recvBlock is the timeout the transports' private receive bodies take
// for Recv: negative waits with no timer. RecvTimeout never passes one
// on; it clamps its timeout to >= 0, so a timeout <= 0 polls.
const recvBlock time.Duration = -1

// recvOn forwards a private receive body's call to a wrapped transport.
func recvOn(tp Transport, to, from int, timeout time.Duration) ([]byte, error) {
	if timeout < 0 {
		return tp.Recv(to, from)
	}
	return tp.RecvTimeout(to, from, timeout)
}

// recvLink is the one receive body of ChanTransport and TCPTransport:
// it takes the next payload off a link's inbox q, where done is the
// transport's close signal. Delivery always wins: a payload already in q
// is returned even when done or the timer fired first. timeout < 0
// blocks with no timer, 0 polls. A closed, empty link reports ErrClosed,
// never ErrTimeout. With poison set a nil payload is TCP's dead-link
// signal, not a payload: it goes back into q, so every later receive
// fails too, and reports ErrPeerLost (ErrClosed once done is closed).
func recvLink(q chan []byte, done <-chan struct{}, poison bool, to, from int, timeout time.Duration) ([]byte, error) {
	select {
	case p := <-q:
		return taken(q, done, poison, to, from, p)
	default:
	}
	if timeout != 0 {
		var expired <-chan time.Time // nil: Recv waits with no timer
		if timeout > 0 {
			timer := time.NewTimer(timeout) //sidco:nondet receive timeout, fault detection only
			defer timer.Stop()
			expired = timer.C
		}
		select {
		case p := <-q:
			return taken(q, done, poison, to, from, p)
		case <-done:
		case <-expired:
		}
		select {
		case p := <-q:
			return taken(q, done, poison, to, from, p)
		default:
		}
	}
	select {
	case <-done:
		return nil, fmt.Errorf("cluster: recv %d->%d: %w", to, from, ErrClosed)
	default:
		return nil, fmt.Errorf("cluster: recv %d->%d after %v: %w", to, from, timeout, ErrTimeout)
	}
}

// taken is recvLink's result for a payload p taken off q.
func taken(q chan []byte, done <-chan struct{}, poison bool, to, from int, p []byte) ([]byte, error) {
	if p != nil || !poison {
		return p, nil
	}
	select {
	case q <- nil: // keep the death signal sticky for later receives
	default:
	}
	select {
	case <-done:
		// Local Close raced the reader's poison: report closure, the
		// deterministic signal the contract promises.
		return nil, fmt.Errorf("cluster: recv %d->%d: %w", to, from, ErrClosed)
	default:
		return nil, fmt.Errorf("cluster: recv %d->%d: link broke: %w", to, from, ErrPeerLost)
	}
}

// checkLink validates a link's endpoints among n nodes.
//
//sidco:errclass caller-misuse validation, deliberately fatal
func checkLink(n, from, to int) error {
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("cluster: link %d->%d outside %d nodes", from, to, n)
	}
	if from == to {
		return fmt.Errorf("cluster: node %d sending to itself", from)
	}
	return nil
}

// ChanTransport is the in-process Transport: one buffered Go channel per
// directed link. It is the zero-dependency stand-in for a real fabric;
// TCPTransport is the real-socket implementation of the same contract.
type ChanTransport struct {
	n     int
	links [][]chan []byte // links[from][to]
	done  chan struct{}
	once  sync.Once
}

// linkDepth bounds in-flight messages per directed link. Every schedule
// in this package keeps at most one message outstanding per link, so any
// positive depth avoids deadlock; a little slack lets senders run ahead.
const linkDepth = 4

// NewChanTransport builds a channel transport connecting nodes
// 0..nodes-1 with an all-to-all directed link mesh.
//
//sidco:errclass construction-time config validation, deliberately fatal
func NewChanTransport(nodes int) (*ChanTransport, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: %d nodes", nodes)
	}
	t := &ChanTransport{
		n:     nodes,
		links: make([][]chan []byte, nodes),
		done:  make(chan struct{}),
	}
	for from := range t.links {
		t.links[from] = make([]chan []byte, nodes)
		for to := range t.links[from] {
			t.links[from][to] = make(chan []byte, linkDepth)
		}
	}
	return t, nil
}

// Nodes implements Transport.
func (t *ChanTransport) Nodes() int { return t.n }

// Send implements Transport. The two-phase select makes the close race
// deterministic: a select listing the link and done together lets Go's
// random case choice report closure even while capacity is free, so the
// link case is tried alone first, and retried once more after done fires
// — Send fails only if the link is genuinely full at shutdown.
func (t *ChanTransport) Send(from, to int, payload []byte) error {
	if err := checkLink(t.n, from, to); err != nil {
		return err
	}
	select {
	case t.links[from][to] <- payload:
		return nil
	default:
	}
	select {
	case t.links[from][to] <- payload:
		return nil
	case <-t.done:
		select {
		case t.links[from][to] <- payload:
			return nil
		default:
			return fmt.Errorf("cluster: send %d->%d: %w", from, to, ErrClosed)
		}
	}
}

// Recv implements Transport, with the same deterministic preference for
// delivery: a payload already sitting in the link is returned even when
// the close fired first. A nil payload is delivered as a payload.
func (t *ChanTransport) Recv(to, from int) ([]byte, error) { return t.recv(to, from, recvBlock) }

// RecvTimeout implements Transport: a payload already in the link wins
// over both the shutdown error and the timeout.
func (t *ChanTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	return t.recv(to, from, max(timeout, 0))
}

func (t *ChanTransport) recv(to, from int, timeout time.Duration) ([]byte, error) {
	if err := checkLink(t.n, from, to); err != nil {
		return nil, err
	}
	return recvLink(t.links[from][to], t.done, false, to, from, timeout)
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
