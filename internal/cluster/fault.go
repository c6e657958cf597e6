package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPlan is a deterministic failure schedule: faults trigger on step
// counters and per-link send counts, never on wall-clock randomness, so
// an injected failure is a reproducible test input — the same plan over
// the same schedule kills the same operation every run.
type FaultPlan struct {
	// KillRank maps a node id to the step at which it dies. A node dead
	// at step s fails its own operations from the first op tagged step
	// >= s (the error wraps ErrClosed, the unrecoverable local-shutdown
	// class), its inbound links blackhole (models a dead peer's kernel
	// buffering), and peers receiving from it fail with ErrPeerLost once
	// its pre-death payloads are drained — exactly the observable
	// behaviour of a crashed process over TCP, minus the timing noise.
	KillRank map[int]int64
	// KillLink maps a directed link to the number of successful sends
	// after which it breaks: send count >= limit fails both ends of the
	// link with ErrPeerLost (pre-break payloads still deliver).
	KillLink map[Link]int
}

// FaultTransport wraps any Transport with the deterministic failure
// injection of a FaultPlan. It consumes the step tags an Instrumented
// wrapper forwards down via SetStep, so step-triggered kills fire at
// exchange boundaries — before any payload of the fatal step is sent.
type FaultTransport struct {
	inner Transport
	rel   releaser // inner's release capability, nil when it has none
	plan  FaultPlan
	step  atomic.Int64

	mu   sync.Mutex
	sent map[Link]int // guarded by mu; successful sends per killable link
}

// NewFaultTransport wraps inner with plan. The zero plan injects
// nothing: the wrapper is then a transparent pass-through.
//
//sidco:oracle the fault injector the recovery tests drive
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	return &FaultTransport{inner: inner, rel: releaserOf(inner), plan: plan, sent: make(map[Link]int)}
}

// innerReleaser implements releaseForwarder: the wrapper lends receive
// frames exactly when the transport it wraps does.
func (t *FaultTransport) innerReleaser() releaser { return t.rel }

// Nodes implements Transport.
func (t *FaultTransport) Nodes() int { return t.inner.Nodes() }

// SetStep advances the fault clock: operations from here on are judged
// against step-triggered kills at this step. Instrumented forwards its
// own SetStep here, so schedules need no extra wiring.
func (t *FaultTransport) SetStep(step int64) { t.step.Store(step) }

// dead reports whether node is killed at the current step.
func (t *FaultTransport) dead(node int) bool {
	s, ok := t.plan.KillRank[node]
	return ok && t.step.Load() >= s
}

// linkBroken reports whether the directed link's send budget is spent.
func (t *FaultTransport) linkBroken(from, to int) bool {
	limit, ok := t.plan.KillLink[Link{from, to}]
	if !ok {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent[Link{from, to}] >= limit
}

// Send implements Transport with the plan applied: a dead sender fails
// (ErrClosed class — its own process is gone), a dead receiver
// blackholes (the payload vanishes, as into a crashed peer's kernel
// buffer), and a broken link fails with ErrPeerLost.
func (t *FaultTransport) Send(from, to int, payload []byte) error {
	if t.dead(from) {
		return fmt.Errorf("cluster: fault: node %d killed at step %d: %w", from, t.plan.KillRank[from], ErrClosed)
	}
	if t.linkBroken(from, to) {
		return fmt.Errorf("cluster: fault: send %d->%d: link killed: %w", from, to, ErrPeerLost)
	}
	if t.dead(to) {
		return nil // blackhole: the dead peer will never read it
	}
	if err := t.inner.Send(from, to, payload); err != nil {
		return err
	}
	if _, ok := t.plan.KillLink[Link{from, to}]; ok {
		t.mu.Lock()
		t.sent[Link{from, to}]++
		t.mu.Unlock()
	}
	return nil
}

// Recv implements Transport with the plan applied.
func (t *FaultTransport) Recv(to, from int) ([]byte, error) { return t.recv(to, from, recvBlock) }

// RecvTimeout implements Transport with the plan applied.
func (t *FaultTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	return t.recv(to, from, max(timeout, 0))
}

// recv applies the plan, then forwards: a dead receiver fails its own
// call (ErrClosed class), while receiving from a dead peer or over a
// broken link drains what the inner transport already queued (per-link
// FIFO: pre-fault payloads still count) and then fails with ErrPeerLost.
func (t *FaultTransport) recv(to, from int, timeout time.Duration) ([]byte, error) {
	var cause string
	switch {
	case t.dead(to):
		return nil, fmt.Errorf("cluster: fault: node %d killed at step %d: %w", to, t.plan.KillRank[to], ErrClosed)
	case t.dead(from):
		cause = "peer killed"
	case t.linkBroken(from, to):
		cause = "link killed"
	default:
		return recvOn(t.inner, to, from, timeout)
	}
	if p, err := t.inner.RecvTimeout(to, from, 0); !errors.Is(err, ErrTimeout) {
		return p, err
	}
	return nil, fmt.Errorf("cluster: fault: recv %d->%d: %s: %w", to, from, cause, ErrPeerLost)
}

// Close implements Transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }
