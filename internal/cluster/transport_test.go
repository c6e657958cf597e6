package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestChanTransportCloseSemantics pins the deterministic close contract:
// delivery wins over the shutdown error whenever the link operation is
// ready, every single time — no dependence on Go's random select choice.
func TestChanTransportCloseSemantics(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		tp, err := NewChanTransport(2)
		if err != nil {
			t.Fatal(err)
		}
		// Two payloads sit in the link when Close lands: both must come
		// out, in order, before Recv reports the closure.
		if err := tp.Send(0, 1, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := tp.Send(0, 1, []byte{2}); err != nil {
			t.Fatal(err)
		}
		tp.Close()
		for want := byte(1); want <= 2; want++ {
			p, err := tp.Recv(1, 0)
			if err != nil {
				t.Fatalf("trial %d: recv of pre-close payload %d failed: %v", trial, want, err)
			}
			if len(p) != 1 || p[0] != want {
				t.Fatalf("trial %d: got payload %v, want [%d] (FIFO across close)", trial, p, want)
			}
		}
		if _, err := tp.Recv(1, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("trial %d: drained recv error = %v, want ErrClosed", trial, err)
		}
		// Send after close with free link capacity completes (delivery
		// preferred); once the link is full it reports the closure.
		for i := 0; i < linkDepth; i++ {
			if err := tp.Send(1, 0, []byte{3}); err != nil {
				t.Fatalf("trial %d: post-close send %d with free capacity failed: %v", trial, i, err)
			}
		}
		if err := tp.Send(1, 0, []byte{4}); !errors.Is(err, ErrClosed) {
			t.Fatalf("trial %d: post-close send on full link error = %v, want ErrClosed", trial, err)
		}
	}
}

// TestChanTransportCloseUnblocksPending covers the blocking side of
// Close: a Recv waiting on an empty link and a Send waiting on a full
// one must both return ErrClosed instead of hanging.
func TestChanTransportCloseUnblocksPending(t *testing.T) {
	tp, err := NewChanTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < linkDepth; i++ {
		if err := tp.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	go func() {
		_, err := tp.Recv(0, 1) // empty link
		errs <- err
	}()
	go func() {
		errs <- tp.Send(0, 1, []byte{9}) // full link
	}()
	time.Sleep(10 * time.Millisecond)
	tp.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("unblocked op error = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending operation did not unblock on Close")
		}
	}
}

// TestTransportCloseMidScheduleRace is the -race regression for the
// shutdown path: nodes run interlocked ring schedules flat out while the
// main goroutine closes the transport under them. Every node must return
// (no deadlock), and any error must be the closure — never a corrupted
// payload or a spurious failure. Runs over both transports.
func TestTransportCloseMidScheduleRace(t *testing.T) {
	const n, dim, steps = 4, 256, 400
	transports := map[string]func() (Transport, error){
		"chan": func() (Transport, error) { return NewChanTransport(n) },
		"tcp":  func() (Transport, error) { return newLoopbackTCP(n) },
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			for _, closeAfter := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
				tp, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make([]error, n)
				for node := 0; node < n; node++ {
					wg.Add(1)
					go func(node int) {
						defer wg.Done()
						data := make([]float64, dim)
						for i := range data {
							data[i] = float64(node*dim + i)
						}
						for step := 0; step < steps; step++ {
							if err := ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, data); err != nil {
								errs[node] = err
								return
							}
						}
					}(node)
				}
				time.Sleep(closeAfter)
				tp.Close()
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("close after %v: schedule deadlocked on shutdown", closeAfter)
				}
				for node, err := range errs {
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("close after %v: node %d failed with %v, want ErrClosed or clean finish", closeAfter, node, err)
					}
				}
			}
		})
	}
}

// newLoopbackTCP builds a TCP transport hosting all n nodes on
// kernel-assigned loopback ports.
func newLoopbackTCP(n int) (*TCPTransport, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return NewTCPTransport(TCPConfig{Addrs: addrs, DialTimeout: 10 * time.Second})
}

// TestChanTransportValidation keeps the link-id checks pinned.
func TestChanTransportValidation(t *testing.T) {
	if _, err := NewChanTransport(0); err == nil {
		t.Error("0 nodes should error")
	}
	tp, err := NewChanTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if err := tp.Send(0, 2, nil); err == nil || errors.Is(err, ErrClosed) {
		t.Errorf("out-of-range send error = %v, want a validation error", err)
	}
	if err := tp.Send(1, 1, nil); err == nil {
		t.Error("self-send should error")
	}
	if _, err := tp.Recv(-1, 0); err == nil {
		t.Error("out-of-range recv should error")
	}
	if fmt.Sprint(tp.Nodes()) != "2" {
		t.Errorf("nodes = %d, want 2", tp.Nodes())
	}
}
