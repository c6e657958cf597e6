package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// contractLink is one transport of the contract table, opened over two
// nodes. queued(n) waits until n payloads sit in link 0->1's inbox, so a
// test can Close with them delivered; kill breaks link 0->1 from the
// sending side the way a dead peer does, and is nil on channel-backed
// transports, which have no peer to lose.
type contractLink struct {
	tp     Transport
	queued func(n int)
	kill   func()
}

// contractRow is one transport of the contract table: ChanTransport or
// an all-local TCPTransport, under an optional wrapper.
type contractRow struct {
	name string
	tcp  bool
	wrap func(Transport) Transport
}

var contractRows = []contractRow{
	{"chan", false, nil},
	{"tcp", true, nil},
	{"fault-chan", false, func(tp Transport) Transport { return NewFaultTransport(tp, FaultPlan{}) }},
	{"fault-tcp", true, func(tp Transport) Transport { return NewFaultTransport(tp, FaultPlan{}) }},
	{"instrumented-chan", false, func(tp Transport) Transport { return NewInstrumented(tp, nil) }},
	{"instrumented-tcp", true, func(tp Transport) Transport { return NewInstrumented(tp, nil) }},
}

func (row contractRow) open(t *testing.T) contractLink {
	t.Helper()
	wrap := func(tp Transport) Transport {
		if row.wrap == nil {
			return tp
		}
		return row.wrap(tp)
	}
	if !row.tcp {
		ch, err := NewChanTransport(2)
		if err != nil {
			t.Fatal(err)
		}
		return contractLink{tp: wrap(ch), queued: func(int) {}}
	}
	tcp := localTCP(t, 2)
	t.Cleanup(func() { tcp.Close() })
	return contractLink{
		tp: wrap(tcp),
		queued: func(n int) {
			deadline := time.Now().Add(10 * time.Second)
			for len(tcp.inbox[Link{0, 1}]) < n {
				if time.Now().After(deadline) {
					t.Fatalf("%d payloads never reached the inbox", n)
				}
				time.Sleep(time.Millisecond)
			}
		},
		kill: func() {
			sl := tcp.sendLink(0, 1)
			sl.mu.Lock()
			sl.conn.Close()
			sl.mu.Unlock()
		},
	}
}

// TestTransportContract is the one table of the receive contract every
// Transport keeps: delivery wins over the close and the timeout, every
// time (no dependence on Go's random select choice); a timeout <= 0
// polls and a timed-out receive consumes nothing; a closed, empty link
// says ErrClosed, never ErrTimeout; a dead TCP peer fails both receives
// with ErrPeerLost, stickily; and only TCP, bare or wrapped, lends its
// receive frames: a released frame backs the link's next receive, one
// still held is never handed out again, and releasing nil, the poison or
// after Close does nothing.
func TestTransportContract(t *testing.T) {
	send := func(t *testing.T, tp Transport, b ...byte) {
		t.Helper()
		for _, v := range b {
			if err := tp.Send(0, 1, []byte{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect := func(t *testing.T, what string, p []byte, err error, want byte) {
		t.Helper()
		if err != nil || len(p) != 1 || p[0] != want {
			t.Fatalf("%s: got %v, %v; want [%d]", what, p, err, want)
		}
	}
	expectErr := func(t *testing.T, what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: error %v, want %v", what, err, want)
		}
	}
	// Every way to receive on link 0->1: a closed or broken link must fail
	// them all the same way.
	everyRecv := func(tp Transport) map[string]func() ([]byte, error) {
		return map[string]func() ([]byte, error){
			"Recv":                func() ([]byte, error) { return tp.Recv(1, 0) },
			"RecvTimeout(0)":      func() ([]byte, error) { return tp.RecvTimeout(1, 0, 0) },
			"RecvTimeout(-1)":     func() ([]byte, error) { return tp.RecvTimeout(1, 0, -1) },
			"RecvTimeout(minute)": func() ([]byte, error) { return tp.RecvTimeout(1, 0, time.Minute) },
		}
	}
	for _, row := range contractRows {
		t.Run(row.name, func(t *testing.T) {
			trials := 100
			if row.tcp {
				trials = 3
			}
			for _, drain := range []string{"Recv", "RecvTimeout(0)"} {
				t.Run("drain-after-close/"+strings.TrimSuffix(drain, "(0)"), func(t *testing.T) {
					for trial := 0; trial < trials; trial++ {
						l := row.open(t)
						send(t, l.tp, 1, 2, 3)
						l.queued(3)
						l.tp.Close()
						for want := byte(1); want <= 3; want++ {
							p, err := everyRecv(l.tp)[drain]()
							expect(t, fmt.Sprintf("trial %d: pre-close payload %d", trial, want), p, err, want)
						}
						for name, recv := range everyRecv(l.tp) {
							_, err := recv()
							expectErr(t, fmt.Sprintf("trial %d: drained %s", trial, name), err, ErrClosed)
						}
						if l.kill != nil {
							continue
						}
						// Channels: a send after Close with free link
						// capacity completes; on a full link it reports
						// the closure.
						for i := 0; i < linkDepth; i++ {
							if err := l.tp.Send(1, 0, []byte{4}); err != nil {
								t.Fatalf("trial %d: post-close send %d with free capacity: %v", trial, i, err)
							}
						}
						expectErr(t, fmt.Sprintf("trial %d: post-close send on a full link", trial), l.tp.Send(1, 0, []byte{5}), ErrClosed)
					}
				})
			}
			t.Run("closed-empty", func(t *testing.T) {
				l := row.open(t)
				l.tp.Close()
				for name, recv := range everyRecv(l.tp) {
					_, err := recv()
					expectErr(t, name, err, ErrClosed)
				}
			})
			t.Run("poll-consumes-nothing", func(t *testing.T) {
				l := row.open(t)
				defer l.tp.Close()
				send(t, l.tp, 1)
				p, err := l.tp.Recv(1, 0)
				expect(t, "first payload", p, err, 1)
				for _, timeout := range []time.Duration{0, -1, 5 * time.Millisecond} {
					_, err := l.tp.RecvTimeout(1, 0, timeout)
					expectErr(t, fmt.Sprintf("RecvTimeout(%v) on an empty link", timeout), err, ErrTimeout)
				}
				send(t, l.tp, 2, 3)
				p, err = l.tp.Recv(1, 0)
				expect(t, "first payload after the timeouts", p, err, 2)
				p, err = l.tp.RecvTimeout(1, 0, time.Minute)
				expect(t, "second payload after the timeouts", p, err, 3)
			})
			t.Run("arrives-before-deadline", func(t *testing.T) {
				l := row.open(t)
				defer l.tp.Close()
				sent := make(chan error, 1)
				go func() {
					time.Sleep(20 * time.Millisecond)
					sent <- l.tp.Send(0, 1, []byte{9})
				}()
				p, err := l.tp.RecvTimeout(1, 0, time.Minute)
				expect(t, "payload sent before the deadline", p, err, 9)
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			})
			t.Run("release", func(t *testing.T) {
				l := row.open(t)
				defer l.tp.Close()
				rel := releaserOf(l.tp)
				if rel == nil {
					if row.tcp {
						t.Fatal("no release capability over TCP")
					}
					return
				}
				if !row.tcp {
					t.Fatal("a transport over channels lends its frames")
				}
				send(t, l.tp, 1)
				p1, err := l.tp.Recv(1, 0)
				expect(t, "first payload", p1, err, 1)
				frame := &p1[0]
				rel.Release(1, 0, p1)
				rel.Release(1, 0, nil)
				send(t, l.tp, 2)
				p2, err := l.tp.Recv(1, 0)
				expect(t, "payload after a release", p2, err, 2)
				if &p2[0] != frame {
					t.Fatal("the released frame does not back the link's next receive")
				}
				send(t, l.tp, 3)
				p3, err := l.tp.Recv(1, 0)
				expect(t, "payload while the last frame is held", p3, err, 3)
				if &p3[0] == frame {
					t.Fatal("a held frame was handed out again")
				}
				l.kill()
				p, err := l.tp.Recv(1, 0)
				expectErr(t, "Recv from a dead peer", err, ErrPeerLost)
				rel.Release(1, 0, p) // the poison
				_, err = l.tp.RecvTimeout(1, 0, 0)
				expectErr(t, "Recv after releasing the poison", err, ErrPeerLost)
				l.tp.Close()
				rel.Release(1, 0, p3)
				rel.Release(1, 0, p2)
			})
			if l := row.open(t); l.kill == nil {
				t.Run("nil-payload", func(t *testing.T) {
					defer l.tp.Close()
					for name, recv := range everyRecv(l.tp) {
						if err := l.tp.Send(0, 1, nil); err != nil {
							t.Fatal(err)
						}
						if p, err := recv(); p != nil || err != nil {
							t.Fatalf("%s of a nil payload: got %v, %v; want nil, nil", name, p, err)
						}
					}
				})
			} else {
				t.Run("peer-lost", func(t *testing.T) {
					defer l.tp.Close()
					send(t, l.tp, 1)
					l.queued(1)
					l.kill()
					p, err := l.tp.Recv(1, 0)
					expect(t, "payload delivered before the peer died", p, err, 1)
					_, err = l.tp.Recv(1, 0) // waits for the reader to see the death
					expectErr(t, "Recv from a dead peer", err, ErrPeerLost)
					for round := 0; round < 2; round++ { // sticky
						for name, recv := range everyRecv(l.tp) {
							_, err := recv()
							expectErr(t, fmt.Sprintf("round %d: %s from a dead peer", round, name), err, ErrPeerLost)
						}
					}
				})
			}
		})
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
							if err := ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, data, data, nil); err != nil {
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
