package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
)

// A decorated transport must still offer receive deadlines, or a node
// configured with a step timeout would silently block forever under trace.
func TestTimedTransportKeepsReceiveDeadlines(t *testing.T) {
	inner, err := cluster.NewChanTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(2, nowNanos)
	tr.on.Store(true)
	var tp cluster.Transport = &timedTransport{inner: inner, tr: tr}
	defer tp.Close()

	rt, ok := tp.(cluster.TimeoutRecver)
	if !ok {
		t.Fatal("timedTransport does not satisfy cluster.TimeoutRecver")
	}
	if _, err := rt.RecvTimeout(1, 0, 5*time.Millisecond); !errors.Is(err, cluster.ErrTimeout) {
		t.Fatalf("receive on an idle link: %v, want cluster.ErrTimeout", err)
	}
	if err := tp.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p, err := rt.RecvTimeout(1, 0, time.Second)
	if err != nil || string(p) != "x" {
		t.Fatalf("receive after send: %q, %v", p, err)
	}
	// One send on lane 0, two receives on lane 1, all closed.
	if n := len(tr.lanes[0].spans) + len(tr.lanes[1].spans); n != 3 {
		t.Errorf("recorded %d spans, want 3", n)
	}
	for ln := range tr.lanes {
		for _, s := range tr.lanes[ln].spans {
			if s.End < s.Start || s.End == 0 {
				t.Errorf("lane %d: span %v left open", ln, s)
			}
		}
	}
}
