package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrHandshakeTimeout is wrapped by the error an accepted connection
// produces when its peer never completes the 12-byte handshake within
// the dial-timeout budget: the connection was established, so the dial
// retry loop is the wrong diagnosis — the peer is up but not speaking
// the protocol (a stray client on the port, or a wedged process). The
// recorded error names the remote address; HandshakeErrors retrieves
// what the accept side observed.
var ErrHandshakeTimeout = errors.New("handshake timed out")

// TCPConfig assembles a TCPTransport.
type TCPConfig struct {
	// Addrs is the shared host list: Addrs[i] is node i's listen address
	// (host:port). Every process of a deployment passes the same list. A
	// port of 0 asks the kernel for a free port — usable only for nodes
	// hosted by this process (peers cannot dial an unknown port); Addr
	// reports the bound address.
	Addrs []string
	// Local lists the node ids this process hosts (it listens for them
	// and may Send from / Recv to them). Empty means all nodes — the
	// single-process configuration the in-process tests use.
	Local []int
	// DialTimeout bounds the lazy-dial retry loop per link: peers of a
	// multi-process launch come up at different times, so the first Send
	// to a node keeps retrying the connection until this budget runs
	// out. Zero means 10 seconds.
	DialTimeout time.Duration
	// Telemetry, if non-nil, records transport-level events: raw wire
	// bytes per directed link (payloads + 4-byte frame headers + the
	// 12-byte handshake, on both the write and the read side), a dial
	// span per established connection, and a counter of retried dial
	// attempts. These sit below the gradient-traffic counters the
	// Instrumented wrapper emits: wire_sent bytes on a link exceed the
	// payload bytes by exactly 4 per message plus 12 per connection.
	// Nil is free.
	Telemetry *telemetry.Tracer
}

// tcpMagic opens every connection's handshake frame, so a stray client
// on the port fails fast instead of corrupting a link.
const tcpMagic = 0x53444331 // "SDC1"

// tcpMaxFrame bounds a frame's declared payload size (1 GiB): a
// corrupted or hostile length prefix fails the link instead of
// attempting an absurd allocation.
const tcpMaxFrame = 1 << 30

// tcpGrowStep is the first allocation of a frame no released frame fits:
// readFrame grows it no faster than the bytes arrive, so a length prefix
// commits memory only as the peer backs it with payload.
const tcpGrowStep = 1 << 20

// TCPTransport is the real-socket Transport: length-prefix-framed
// payloads over one TCP connection per directed link, with a listener
// per hosted node. Per-link FIFO follows from TCP's byte-stream order
// plus the one-connection-per-link rule; the handshake frame tags each
// connection with its (from, to) link, so accepted connections
// demultiplex into per-link inboxes.
//
// A transport instance may host any subset of the node set: one node per
// process in a real deployment (cmd/sidco-node), or all nodes in one
// process for loopback tests — either way every payload crosses a real
// socket. Close follows the Transport contract on the receive side
// (payloads already delivered to an inbox are preferred over the close
// error); sends fail once the sockets are torn down. It lends its receive
// frames (the Transport's receive rule): a receiver that hands a payload
// back with Release lets the link read a later frame into it.
type TCPTransport struct {
	n           int
	addrs       []string
	local       []bool
	dialTimeout time.Duration
	tel         *telemetry.Tracer

	lns   []net.Listener       // per hosted node, nil elsewhere
	inbox map[Link]chan []byte // links into hosted nodes
	free  map[Link]chan []byte // released frames per inbox link: linkDepth, as many as the inbox holds
	done  chan struct{}
	once  sync.Once

	mu    sync.Mutex
	sends map[Link]*tcpSendLink // guarded by mu
	conns map[net.Conn]struct{} // guarded by mu
	wg    sync.WaitGroup

	hsMu   sync.Mutex
	hsErrs []error // guarded by hsMu; accept-side handshake failures, per connection
}

// tcpSendLink is the sender half of one directed link: the lazily
// dialed connection and its write lock (schedules have a single sender
// per link, but the lock keeps misuse safe rather than corrupting the
// frame stream).
type tcpSendLink struct {
	mu   sync.Mutex
	conn net.Conn // guarded by mu
	seq  int64    // guarded by mu; next wire sequence number; the handshake took 0
	err  error    // guarded by mu; sticky dial failure
	hdr  [4]byte  // guarded by mu; the frame header being written
}

// NewTCPTransport binds a listener for every hosted node and starts
// their accept loops. Connections are dialed lazily on first Send per
// link. Callers must Close the transport to release the sockets.
//
//sidco:errclass construction-time config validation, deliberately fatal
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("cluster: tcp transport needs at least one address")
	}
	t := &TCPTransport{
		n:           n,
		addrs:       append([]string(nil), cfg.Addrs...),
		local:       make([]bool, n),
		dialTimeout: cfg.DialTimeout,
		tel:         cfg.Telemetry,
		lns:         make([]net.Listener, n),
		inbox:       make(map[Link]chan []byte),
		free:        make(map[Link]chan []byte),
		done:        make(chan struct{}),
		sends:       make(map[Link]*tcpSendLink),
		conns:       make(map[net.Conn]struct{}),
	}
	if t.dialTimeout <= 0 {
		t.dialTimeout = 10 * time.Second
	}
	if len(cfg.Local) == 0 {
		for i := range t.local {
			t.local[i] = true
		}
	} else {
		for _, id := range cfg.Local {
			if id < 0 || id >= n {
				return nil, fmt.Errorf("cluster: local node %d outside %d addresses", id, n)
			}
			t.local[id] = true
		}
	}
	for node := range t.addrs {
		if !t.local[node] {
			continue
		}
		ln, err := net.Listen("tcp", t.addrs[node])
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster: node %d listen %s: %w", node, t.addrs[node], err)
		}
		t.lns[node] = ln
		t.addrs[node] = ln.Addr().String() // resolve port 0
		for from := 0; from < n; from++ {
			if from != node {
				t.inbox[Link{from, node}] = make(chan []byte, linkDepth)
				t.free[Link{from, node}] = make(chan []byte, linkDepth)
			}
		}
	}
	for node, ln := range t.lns {
		if ln == nil {
			continue
		}
		t.wg.Add(1)
		go t.acceptLoop(node, ln)
	}
	return t, nil
}

// Nodes implements Transport.
func (t *TCPTransport) Nodes() int { return t.n }

func (t *TCPTransport) closed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Send implements Transport: it lazily dials the link's connection (with
// retries, so peers may come up later) and writes one framed payload.
// TCP flow control provides the link-capacity backpressure: when the
// receiver's inbox is full its reader stops draining the socket, and the
// write here eventually blocks. The payload has been copied into the
// socket when Send returns, so the caller may write it at once.
func (t *TCPTransport) Send(from, to int, payload []byte) error {
	if err := checkLink(t.n, from, to); err != nil {
		return err
	}
	if !t.local[from] {
		return fmt.Errorf("cluster: send from node %d, which this transport does not host", from) //sidco:errclass caller misuse, deliberately fatal
	}
	if len(payload) > tcpMaxFrame {
		return fmt.Errorf("cluster: send %d->%d: payload %d bytes exceeds frame limit", from, to, len(payload)) //sidco:errclass caller misuse, deliberately fatal
	}
	if t.closed() {
		return fmt.Errorf("cluster: send %d->%d: %w", from, to, ErrClosed)
	}
	sl := t.sendLink(from, to)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.err != nil {
		return sl.err
	}
	if sl.conn == nil {
		conn, err := t.dial(from, to)
		if err != nil {
			sl.err = err
			return err
		}
		sl.conn = conn
		sl.seq = 1 // the handshake carried wire sequence 0
	}
	// The send is stamped before the write: the peer's reader may stamp
	// its receive before a Write returns here, and trace assembly aligns
	// process clocks on send-before-receive.
	t.tel.CountSeq(telemetry.CounterWireSentBytes, from, to, int64(4+len(payload)), sl.seq, -1)
	sl.seq++
	binary.LittleEndian.PutUint32(sl.hdr[:], uint32(len(payload)))
	if _, err := sl.conn.Write(sl.hdr[:]); err != nil {
		return t.sendErr(from, to, err)
	}
	if _, err := sl.conn.Write(payload); err != nil {
		return t.sendErr(from, to, err)
	}
	return nil
}

// sendErr maps a socket write failure onto the Transport contract: after
// Close every send error reports the closure, not the torn-down socket;
// before it, a failed write means the peer tore the connection down
// (process death shows up as RST/broken pipe on the next write), which
// classifies as the recoverable peer-loss the elastic layer handles.
func (t *TCPTransport) sendErr(from, to int, err error) error {
	if t.closed() {
		return fmt.Errorf("cluster: send %d->%d: %w", from, to, ErrClosed)
	}
	return fmt.Errorf("cluster: send %d->%d: link broke: %w: %v", from, to, ErrPeerLost, err)
}

func (t *TCPTransport) sendLink(from, to int) *tcpSendLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := Link{from, to}
	sl := t.sends[l]
	if sl == nil {
		sl = &tcpSendLink{}
		t.sends[l] = sl
	}
	return sl
}

// dial connects the directed link from -> to and performs the handshake.
// Peers of a multi-process launch start at different times, so refused
// connections are retried with backoff until DialTimeout.
func (t *TCPTransport) dial(from, to int) (net.Conn, error) {
	span := t.tel.Begin(telemetry.SpanDial, from, to, -1)
	deadline := time.Now().Add(t.dialTimeout) //sidco:nondet dial deadline, connection setup only
	backoff := 10 * time.Millisecond
	for {
		if t.closed() {
			return nil, fmt.Errorf("cluster: dial %d->%d: %w", from, to, ErrClosed)
		}
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", t.addrs[to])
		if err == nil {
			var hs [12]byte
			binary.LittleEndian.PutUint32(hs[0:], tcpMagic)
			binary.LittleEndian.PutUint32(hs[4:], uint32(from))
			binary.LittleEndian.PutUint32(hs[8:], uint32(to))
			// The handshake is wire sequence 0 on its directed link: the
			// first paired event trace assembly aligns process clocks
			// with, so it is stamped before the write, as frames are.
			t.tel.CountSeq(telemetry.CounterWireSentBytes, from, to, int64(len(hs)), 0, -1)
			if _, werr := conn.Write(hs[:]); werr != nil {
				conn.Close()
				return nil, fmt.Errorf("cluster: dial %d->%d handshake: %w", from, to, werr)
			}
			t.mu.Lock()
			t.conns[conn] = struct{}{}
			t.mu.Unlock()
			if t.closed() { // Close raced the registration: tear down now
				conn.Close()
				return nil, fmt.Errorf("cluster: dial %d->%d: %w", from, to, ErrClosed)
			}
			span.End() // only successful establishments are recorded
			return conn, nil
		}
		if time.Now().After(deadline) { //sidco:nondet dial deadline, connection setup only
			if t.closed() {
				return nil, fmt.Errorf("cluster: dial %d->%d: %w", from, to, ErrClosed)
			}
			return nil, fmt.Errorf("cluster: dial %d->%d (%s): %w", from, to, t.addrs[to], err)
		}
		t.tel.Count(telemetry.CounterDialRetries, from, to, 1)
		time.Sleep(backoff)
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// Recv implements Transport with the contract's deterministic close
// preference: payloads the reader goroutine already delivered to the
// link's inbox win over the shutdown error. A nil payload is the
// reader's poison pill — the peer's connection broke (its process died
// or dropped the link), so Recv fails instead of blocking forever on an
// inbox no one will ever feed again.
func (t *TCPTransport) Recv(to, from int) ([]byte, error) { return t.recv(to, from, recvBlock) }

// RecvTimeout implements Transport over the same inbox as Recv:
// delivered payloads win over the close error and the timeout; a nil
// poison still reports the lost link.
func (t *TCPTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	return t.recv(to, from, max(timeout, 0))
}

func (t *TCPTransport) recv(to, from int, timeout time.Duration) ([]byte, error) {
	if err := checkLink(t.n, from, to); err != nil {
		return nil, err
	}
	if !t.local[to] {
		return nil, fmt.Errorf("cluster: recv at node %d, which this transport does not host", to) //sidco:errclass caller misuse, deliberately fatal
	}
	return recvLink(t.inbox[Link{from, to}], t.done, true, to, from, timeout)
}

// Release implements releaser: p, a payload received on link from -> to,
// backs a later frame of that link. The link keeps at most linkDepth
// released frames and drops the rest; releasing nil, the poison, or on a
// link this transport does not host does nothing, and neither does
// releasing after Close.
func (t *TCPTransport) Release(to, from int, p []byte) {
	if cap(p) == 0 {
		return
	}
	select {
	case t.free[Link{from, to}] <- p[:0]: // a nil channel (no such link) never takes it
	default:
	}
}

// acceptLoop owns one hosted node's listener: each accepted connection
// is handshake-validated and handed to a reader goroutine for the life
// of the link.
func (t *TCPTransport) acceptLoop(node int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		if t.closed() {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

// readLoop validates a connection's handshake and then pumps its frames
// into the link's inbox until the connection or the transport closes,
// reading each into a frame the receiver released when one fits. A
// connection that breaks after carrying the link (peer crash, dropped
// socket) poisons the inbox with a nil payload so blocked Recvs fail
// fast instead of waiting on a dead peer forever.
func (t *TCPTransport) readLoop(node int, conn net.Conn) {
	defer t.wg.Done()
	conn.SetReadDeadline(time.Now().Add(t.dialTimeout)) //sidco:nondet handshake read deadline, connection setup only
	var hs [12]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		// A connection that was accepted but never finished the handshake
		// is a distinct failure from a refused dial: the peer is reachable
		// but not speaking the protocol. Record a named error (the dial
		// retry loop cannot see this side) instead of dying silently.
		if !t.closed() {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.noteHandshakeErr(fmt.Errorf(
					"cluster: node %d: connection from %s: %w after %v",
					node, conn.RemoteAddr(), ErrHandshakeTimeout, t.dialTimeout))
			} else {
				t.noteHandshakeErr(fmt.Errorf(
					"cluster: node %d: connection from %s: handshake read: %w",
					node, conn.RemoteAddr(), err))
			}
		}
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	from := int(binary.LittleEndian.Uint32(hs[4:]))
	to := int(binary.LittleEndian.Uint32(hs[8:]))
	if binary.LittleEndian.Uint32(hs[0:]) != tcpMagic || to != node || from < 0 || from >= t.n || from == to {
		conn.Close()
		return
	}
	// Wire sequence numbers mirror the sender's exactly: TCP's byte
	// stream delivers the handshake (0) and every frame (1, 2, ...) in
	// write order, and this goroutine is the link's only reader.
	t.tel.CountSeq(telemetry.CounterWireRecvBytes, from, to, int64(len(hs)), 0, -1)
	wireSeq := int64(1)
	ch, free := t.inbox[Link{from, to}], t.free[Link{from, to}]
	fail := func() {
		conn.Close()
		if t.closed() {
			return // local shutdown: ErrClosed is the signal, not link loss
		}
		select {
		case ch <- nil: // poison: Recv turns this into a link-lost error
		case <-t.done:
		}
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			fail()
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size > tcpMaxFrame {
			fail()
			return
		}
		var frame []byte
		select {
		case frame = <-free:
		default:
		}
		payload, err := readFrame(conn, frame, int(size))
		if err != nil {
			fail()
			return
		}
		t.tel.CountSeq(telemetry.CounterWireRecvBytes, from, to, int64(4+size), wireSeq, -1)
		wireSeq++
		select {
		case ch <- payload:
		case <-t.done:
			conn.Close()
			return
		}
	}
}

// readFrame reads a size-byte payload from r into frame, a released frame
// or nil. A frame that fits is read into as it is: ReadFull overwrites
// every byte, so it needs no zeroing. Otherwise a fresh one grows as the
// bytes arrive, from tcpGrowStep by doubling up to exactly size, so a
// hostile length prefix followed by nothing commits one step, not the
// declared size.
func readFrame(r io.Reader, frame []byte, size int) ([]byte, error) {
	if frame == nil || cap(frame) < size {
		frame = make([]byte, 0, min(size, tcpGrowStep)) // never nil: nil is the poison
	}
	for {
		got := len(frame)
		frame = frame[:cap(frame)]
		if _, err := io.ReadFull(r, frame[got:min(size, len(frame))]); err != nil {
			return nil, err
		}
		if size <= len(frame) {
			return frame[:size], nil
		}
		grown := make([]byte, len(frame), min(size, 2*len(frame)))
		copy(grown, frame)
		frame = grown
	}
}

// noteHandshakeErr records one accept-side handshake failure.
func (t *TCPTransport) noteHandshakeErr(err error) {
	t.hsMu.Lock()
	t.hsErrs = append(t.hsErrs, err)
	t.hsMu.Unlock()
}

// HandshakeErrors returns the accept-side handshake failures observed so
// far: connections that were established but never delivered a valid
// handshake frame. A peer that accepts-but-stalls surfaces here as an
// error wrapping ErrHandshakeTimeout naming the remote address.
//
//sidco:oracle what the stalled-handshake tests observe
func (t *TCPTransport) HandshakeErrors() []error {
	t.hsMu.Lock()
	defer t.hsMu.Unlock()
	return append([]error(nil), t.hsErrs...)
}

// FreeLoopbackAddrs reserves n distinct loopback host:port addresses by
// binding and immediately releasing kernel-assigned ports — the host
// list a single-machine launcher (cmd/sidco-node -launch, the loopback
// tests) hands to every node before any listener is up. The ports are
// free at return but not held, so a rebind race is possible in
// principle; callers that cannot tolerate it should retry construction.
func FreeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: reserving loopback port %d: %w", i, err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// Close implements Transport: it stops the accept and reader goroutines,
// closes every connection and unblocks pending operations. Payloads
// already delivered to inboxes stay receivable per the contract.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		for _, ln := range t.lns {
			if ln != nil {
				ln.Close()
			}
		}
		t.mu.Lock()
		for conn := range t.conns {
			conn.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}
