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
// fatal local-shutdown class (ErrClosed); Config.StepTimeout bounds
// every schedule receive, and Config.MaxStepRetries enables elastic
// membership: survivors of a recoverable failure agree on the live
// member set (a fixed-round mask exchange that doubles as a link drain),
// re-run the step over the surviving group, and rescale the aggregate to
// the survivor count. FaultTransport injects deterministic link/node
// failures for tests, and dist's checkpointing restores a killed rank's
// training state for rejoin.
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

// TimeoutRecver is the optional Transport capability the per-step
// timeout rides on: RecvTimeout behaves like Recv but fails with an
// error wrapping ErrTimeout once the timeout elapses with no payload
// deliverable. A timed-out call consumes nothing — a payload arriving
// later stays queued for the next receive, preserving per-link FIFO.
// Both ChanTransport and TCPTransport implement it.
type TimeoutRecver interface {
	RecvTimeout(to, from int, timeout time.Duration) ([]byte, error)
}

// Transport moves opaque byte payloads between numbered nodes over
// directed links. Implementations must preserve per-link FIFO order.
// Payloads are immutable by convention: receivers must not modify them,
// which lets ring schedules forward buffers without copying.
//
// Close semantics are deterministic, so a schedule torn down mid-flight
// fails the same way every run: delivery is preferred over the shutdown
// error. A Recv whose payload was already delivered locally returns that
// payload, not the close error; a Send that has free link capacity at
// the moment it observes the close still completes (the payload is
// simply never read). Operations fail with an error wrapping ErrClosed
// only when the transport is closed AND the operation would have to
// block. TCPTransport matches this contract on the receive side exactly;
// its sends additionally fail once the underlying sockets are torn down.
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
	// deliverable) or on an invalid node id.
	Recv(to, from int) ([]byte, error)
	// Close tears the transport down, unblocking pending operations.
	Close() error
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

// check validates a link's endpoints.
//
//sidco:errclass caller-misuse validation, deliberately fatal
func (t *ChanTransport) check(from, to int) error {
	if from < 0 || from >= t.n || to < 0 || to >= t.n {
		return fmt.Errorf("cluster: link %d->%d outside %d nodes", from, to, t.n)
	}
	if from == to {
		return fmt.Errorf("cluster: node %d sending to itself", from)
	}
	return nil
}

// Send implements Transport. The two-phase select makes the close race
// deterministic: a select listing the link and done together lets Go's
// random case choice report closure even while capacity is free, so the
// link case is tried alone first, and retried once more after done fires
// — Send fails only if the link is genuinely full at shutdown.
func (t *ChanTransport) Send(from, to int, payload []byte) error {
	if err := t.check(from, to); err != nil {
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
// the done case fired first in the combined select.
func (t *ChanTransport) Recv(to, from int) ([]byte, error) {
	if err := t.check(from, to); err != nil {
		return nil, err
	}
	select {
	case p := <-t.links[from][to]:
		return p, nil
	default:
	}
	select {
	case p := <-t.links[from][to]:
		return p, nil
	case <-t.done:
		select {
		case p := <-t.links[from][to]:
			return p, nil
		default:
			return nil, fmt.Errorf("cluster: recv %d->%d: %w", to, from, ErrClosed)
		}
	}
}

// RecvTimeout implements TimeoutRecver with the same deterministic
// delivery preference as Recv: a payload already in the link wins over
// both the shutdown error and the timeout.
func (t *ChanTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	if err := t.check(from, to); err != nil {
		return nil, err
	}
	select {
	case p := <-t.links[from][to]:
		return p, nil
	default:
	}
	timer := time.NewTimer(timeout) //sidco:nondet receive timeout, fault detection only
	defer timer.Stop()
	select {
	case p := <-t.links[from][to]:
		return p, nil
	case <-t.done:
		select {
		case p := <-t.links[from][to]:
			return p, nil
		default:
			return nil, fmt.Errorf("cluster: recv %d->%d: %w", to, from, ErrClosed)
		}
	case <-timer.C:
		select {
		case p := <-t.links[from][to]:
			return p, nil
		default:
			return nil, fmt.Errorf("cluster: recv %d->%d after %v: %w", to, from, timeout, ErrTimeout)
		}
	}
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
