package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// Elastic membership: when a schedule fails recoverably (a peer died or
// a receive timed out), the survivors agree on a new member set and
// retry the step over it. The agreement protocol is a fixed number of
// mask-exchange rounds over the *raw* transport — the same links the
// gradient schedules use, so per-link FIFO makes the protocol double as
// a drain barrier: by the time a peer's final-round frame is received,
// every frame that peer sent earlier (stale gradient payloads of the
// aborted step included) has been consumed, and the peer sends its
// retry gradients only after its own final round. Riding the raw
// transport also keeps the frames out of the instrumented
// gradient-traffic counters, like MeanScalar's loss frames.
//
// Membership frames are 20 bytes with a magic prefix no legitimate
// payload can collide with: raw ring chunks are a multiple of 8 bytes,
// loss scalars are 8 bytes, and encoded gradient payloads start with a
// small format id, never the magic byte. A frame arriving where a
// gradient was expected is therefore unambiguous evidence that the
// sender aborted the step and is renegotiating — the schedule receive
// hook turns it into a recoverable error instead of a decode failure.

// memberMagic prefixes every membership frame ("SDCM" little-endian on
// the wire).
const memberMagic uint32 = 0x4D434453

// memberRounds is the fixed round count of the agreement protocol. Two
// rounds let every survivor first learn who responded, then confirm the
// intersected view; because the count is fixed, no rank can finish the
// protocol while a survivor still waits on a frame it will never send.
const memberRounds = 2

// memberFrameLen is the wire size: magic u32 | epoch u32 | round u32 |
// mask u64, little-endian.
const memberFrameLen = 20

// maxMembers bounds the node ids a view can hold: the mask is one u64,
// so Config.Validate refuses elastic recovery over more nodes.
const maxMembers = 64

// memberFrame is one membership protocol message: the sender's current
// view of the deployment as a node-id bitmask, tagged with the
// renegotiation epoch and protocol round.
type memberFrame struct {
	epoch uint32
	round uint32
	mask  uint64
}

func (f memberFrame) encode() []byte {
	buf := make([]byte, memberFrameLen)
	binary.LittleEndian.PutUint32(buf[0:], memberMagic)
	binary.LittleEndian.PutUint32(buf[4:], f.epoch)
	binary.LittleEndian.PutUint32(buf[8:], f.round)
	binary.LittleEndian.PutUint64(buf[12:], f.mask)
	return buf
}

// parseMemberFrame reports whether p is a membership frame and decodes
// it if so.
func parseMemberFrame(p []byte) (memberFrame, bool) {
	if len(p) != memberFrameLen || binary.LittleEndian.Uint32(p) != memberMagic {
		return memberFrame{}, false
	}
	return memberFrame{
		epoch: binary.LittleEndian.Uint32(p[4:]),
		round: binary.LittleEndian.Uint32(p[8:]),
		mask:  binary.LittleEndian.Uint64(p[12:]),
	}, true
}

// peerRenegotiating is the error a schedule receive raises when it
// pulls a membership frame off a link where a gradient payload was
// expected: the peer aborted the step and opened a renegotiation. It
// classifies as recoverable (it wraps ErrPeerLost) and carries the
// frame so the local renegotiation starts with it already consumed.
type peerRenegotiating struct {
	from  int
	frame memberFrame
}

func (e *peerRenegotiating) Error() string {
	return fmt.Sprintf("cluster: peer %d renegotiating membership (epoch %d): %v", e.from, e.frame.epoch, ErrPeerLost)
}

func (e *peerRenegotiating) Unwrap() error { return ErrPeerLost }

// recvDeadline is one receive bounded by an absolute deadline: a zero
// deadline blocks indefinitely, otherwise the remaining budget is
// applied per receive (a spent one polls), so every receive of a
// schedule run shares one step deadline.
func recvDeadline(tp Transport, to, from int, deadline time.Time) ([]byte, error) {
	if deadline.IsZero() {
		return tp.Recv(to, from)
	}
	return tp.RecvTimeout(to, from, time.Until(deadline)) //sidco:nondet converts a fault-detection deadline to a timeout
}

// interceptRecv builds the schedule receive hook: deadline-bounded
// receives that classify an arriving membership frame as a recoverable
// peerRenegotiating error instead of handing it to a gradient decoder.
func interceptRecv(tp Transport, deadline time.Time) linkRecv {
	return func(to, from int) ([]byte, error) {
		p, err := recvDeadline(tp, to, from, deadline)
		if err != nil {
			return nil, err
		}
		if f, ok := parseMemberFrame(p); ok {
			return nil, &peerRenegotiating{from: from, frame: f}
		}
		return p, nil
	}
}

func maskOf(members []int) uint64 {
	var m uint64
	for _, id := range members {
		m |= 1 << uint(id)
	}
	return m
}

func maskMembers(mask uint64) []int {
	var ids []int
	for id := 0; id < maxMembers; id++ {
		if mask&(1<<uint(id)) != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// negotiator holds the cross-renegotiation state one node keeps: the
// latest membership frame seen per peer. Frames a schedule receive
// intercepted land here (via note) so the protocol does not wait for a
// message it already consumed; frames from a peer running ahead of the
// local round satisfy later rounds from the stash — per-link FIFO
// guarantees a stashed frame is never newer than an unconsumed one.
type negotiator struct {
	stash map[int]memberFrame
}

// note records an intercepted frame from a peer.
func (ng *negotiator) note(from int, f memberFrame) {
	if ng.stash == nil {
		ng.stash = make(map[int]memberFrame)
	}
	if old, ok := ng.stash[from]; ok && (old.epoch > f.epoch || (old.epoch == f.epoch && old.round >= f.round)) {
		return
	}
	ng.stash[from] = f
}

// frameFrom obtains peer id's frame for (epoch, round): from the stash
// if an equal-or-newer frame was already consumed, else by receiving on
// the link, draining stale payloads (aborted-step gradient bytes,
// frames from older epochs) until a current frame or the timeout.
// ok=false means the peer stayed silent — it is treated as dead. A
// non-recoverable receive error (transport closed) aborts the protocol.
func (ng *negotiator) frameFrom(tp Transport, self, id int, epoch, round uint32, timeout time.Duration) (memberFrame, bool, error) {
	if f, ok := ng.stash[id]; ok && (f.epoch > epoch || (f.epoch == epoch && f.round >= round)) {
		return f, true, nil
	}
	deadline := time.Now().Add(timeout) //sidco:nondet renegotiation deadline, fault path only
	for {
		p, err := recvDeadline(tp, self, id, deadline)
		if err != nil {
			if Recoverable(err) {
				return memberFrame{}, false, nil
			}
			return memberFrame{}, false, err
		}
		f, ok := parseMemberFrame(p)
		if !ok || f.epoch < epoch {
			continue // stale gradient payload or an older renegotiation
		}
		ng.note(id, f)
		if f.epoch > epoch || f.round >= round {
			return f, true, nil
		}
	}
}

// renegotiate runs the membership protocol from one node: starting from
// the current member view (which must contain self), exchange view
// masks with every peer for memberRounds rounds, dropping peers that
// stay silent past the timeout and intersecting the views of those that
// respond. It returns the agreed member list, ascending and containing
// self. Send failures are ignored (the peer is dead or unreachable —
// exactly what the protocol is resolving); a closed local transport
// surfaces as a non-recoverable receive error during collection.
//
// The timeout is the base per-frame wait and must cover the detection
// skew between survivors: a survivor adjacent to the dead peer fails
// fast, while one waiting on a forwarded payload blocks a full step
// timeout first — callers pass roughly twice the step timeout. Later
// rounds wait proportionally longer (see the loop) to absorb the skew
// a dead-peer probe adds to a live peer's earlier rounds; with several
// peers dying at once behind unestablished links, those probes stack
// and a larger step timeout may be needed.
func (ng *negotiator) renegotiate(tp Transport, self int, members []int, epoch uint32, timeout time.Duration) ([]int, error) {
	view := append([]int(nil), members...)
	if memberPos(view, self) < 0 {
		return nil, fmt.Errorf("cluster: node %d renegotiating a group it is not in (%v)", self, members) //sidco:errclass caller misuse, deliberately fatal
	}
	// One sender goroutine per peer: frames to the same peer stay ordered
	// (a single goroutine per link, and Send serialises per link), while a
	// dead peer cannot delay anyone else's frames — sending to a vanished
	// process over a never-established link burns the transport's full
	// lazy-dial budget, which can exceed every protocol timeout here.
	// Serial sends would push the frames of peers later in the loop past
	// the survivors' collection windows and split the group.
	type sender struct {
		ch   chan []byte
		done chan struct{}
	}
	sends := make(map[int]*sender, len(view))
	for _, id := range view {
		if id == self {
			continue
		}
		sn := &sender{ch: make(chan []byte, memberRounds), done: make(chan struct{})}
		sends[id] = sn
		go func(id int, sn *sender) {
			defer close(sn.done)
			for wire := range sn.ch {
				tp.Send(self, id, wire)
			}
		}(id, sn)
	}
	// finish closes every sender and, crucially, WAITS for the senders of
	// peers that stay in the agreed view: the caller's very next sends on
	// those links are retry-schedule payloads from another goroutine, and
	// returning with a final-round frame still queued would let a gradient
	// chunk overtake it — the peer then drains the chunk as stale while
	// waiting for the frame, and every later payload on the link lands one
	// slot out of phase. Senders of dropped peers are left to drain in the
	// background (nothing will ever send on those links again), so a dead
	// peer's dial budget cannot stall the survivors.
	finish := func(final []int) {
		for id, sn := range sends {
			close(sn.ch)
			if final != nil && memberPos(final, id) >= 0 {
				<-sn.done
			}
		}
	}
	selfBit := uint64(1) << uint(self)
	for round := uint32(1); round <= memberRounds; round++ {
		frame := memberFrame{epoch: epoch, round: round, mask: maskOf(view)}
		wire := frame.encode()
		for _, id := range view {
			if id == self {
				continue
			}
			// Buffered to memberRounds, one frame per round: never blocks.
			sends[id].ch <- wire
		}
		agreed := maskOf(view)
		alive := selfBit
		for _, id := range view {
			if id == self {
				continue
			}
			// The wait budget grows with the round: a live peer's round-r
			// frame can lag behind ours by its own round-r-1 collection,
			// which may have spent a full timeout probing a dead peer whose
			// link was never established (and so never got poisoned).
			// Survivors adjacent to the dead node finish their rounds almost
			// immediately; a flat budget would make them give up on the
			// slow-but-live ranks exactly when those ranks' frames are about
			// to arrive, splitting the deployment into inconsistent views.
			f, ok, err := ng.frameFrom(tp, self, id, epoch, round, time.Duration(round)*timeout)
			if err != nil {
				finish(nil)
				return nil, err
			}
			if !ok {
				continue
			}
			alive |= 1 << uint(id)
			agreed &= f.mask | selfBit
		}
		view = maskMembers(agreed & alive)
		sort.Ints(view)
	}
	finish(view)
	return view, nil
}
