package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/dist"
)

// The collective schedules below are written from one node's
// perspective: every participating node calls the same function with its
// own id, and the per-node message schedules interlock into the
// collective. All of them preserve the package's traffic contract — ring
// all-reduce sends 2(N-1) messages per node, all-gather N-1 per node,
// parameter server 2N in total — matching internal/netsim's alpha-beta
// step formulas.
//
// They run over an arbitrary sorted member list — nodes 0..n-1
// (identityMembers) until elastic membership excludes a dead peer. Ring
// neighbours are taken by *position* in the member list and chunk
// geometry is computed over the member count. All receives go through a
// linkRecv hook, which is where the per-step deadline and the
// membership-frame interception live.

// linkRecv abstracts one blocking receive on a directed link. The
// schedule code never calls Transport.Recv directly: the hook lets the
// runner apply a step deadline (RecvTimeout) and turn an intercepted
// membership frame into a recoverable error without the schedules
// knowing about either.
type linkRecv func(to, from int) ([]byte, error)

// identityMembers is the full-membership list 0..n-1.
func identityMembers(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// memberPos returns the position of id in the ascending member list, or
// -1 if id is not a member.
func memberPos(members []int, id int) int {
	for p, m := range members {
		if m == id {
			return p
		}
	}
	return -1
}

// checkMember validates a group schedule call: members must be
// non-empty, within the transport, and contain self.
//
//sidco:errclass caller-misuse validation, deliberately fatal
func checkMember(tp Transport, members []int, self int) (pos int, err error) {
	if len(members) < 1 {
		return -1, fmt.Errorf("cluster: empty member group")
	}
	for _, m := range members {
		if m < 0 || m >= tp.Nodes() {
			return -1, fmt.Errorf("cluster: member %d outside the %d-node transport", m, tp.Nodes())
		}
	}
	pos = memberPos(members, self)
	if pos < 0 {
		return -1, fmt.Errorf("cluster: node %d is not in the member group %v", self, members)
	}
	return pos, nil
}

// ringAllReduceGroup runs the bandwidth-optimal ring all-reduce over the
// member list and leaves the mean of the members' src vectors in out (both
// d elements; out may be src itself): m-1 reduce-scatter steps followed by
// m-1 all-gather steps, each node sending one ~d/m-element chunk to its
// ring successor.
//
// With apply set the mean is not gathered whole: once the last all-gather
// receive has succeeded, apply gets every chunk where it sits — the owned
// and the forwarded ones in out, the last one received straight from its
// frame (f64Frame: a view on a little-endian host when the frame is 8-byte
// aligned, else decoded into out first) — and out is left without that
// last chunk. A run that fails has called apply never; at m = 1 apply gets
// src whole.
//
// Reduce-scatter step s writes out = src + received on a chunk no earlier
// step touched, so out needs no copy of src first; the last step writes
// (src + received) * (1/m) on the chunk this node then owns, and the
// all-gather circulates chunks that are already scaled. Every element is
// the ring-order sum times 1/m: chunk c starts as the gradient of the
// member at position c, each later member in ring order adds its own on
// the left, and the last add is scaled. RingOrder states that order on its
// own, and every result of this function is held to it bit for bit.
//
// Reduce-scatter sends views of src and out, not copies (ringWire), as the
// Transport's reuse rule allows. Counting the 2(m-1) steps of both phases
// together, the successor reads the chunk sent at step s within its own
// step s, and this node writes that chunk again (at step s+m-1, or in the
// caller's next round) only after receiving what its predecessor sent at
// step s+m-1, a message that follows the read m-1 hops around the ring.
// The owned chunk is the exception: the successor copies it at the
// all-gather's first step, which at m = 2 is also this node's last, so no
// message orders the copy before the caller rewrites out. On a transport
// that lends its receive frames (releaserOf), Send has copied it before
// returning, so it goes out as a view too; elsewhere it goes out from one
// fresh buffer per round. The later all-gather steps forward the payload
// received, unchanged.
//
// On a lending transport every received frame goes back: a reduce-scatter
// frame once it is reduced, an all-gather frame once it is copied into out
// and, but for the last, forwarded; the last once applied. Every received
// chunk is read where it landed when the host's byte order and the frame's
// alignment allow (f64sOf): reduced, copied or applied straight from it.
func ringAllReduceGroup(tp Transport, recv linkRecv, members []int, self int, src, out []float64, apply func(off int, mean []float64)) error {
	pos, err := checkMember(tp, members, self)
	if err != nil {
		return err
	}
	d := len(out)
	if len(src) != d {
		return fmt.Errorf("cluster: dense gradient has %d elements, want %d", len(src), d) //sidco:errclass geometry violation means a buggy caller, deliberately fatal
	}
	m := len(members)
	if m == 1 {
		if apply != nil {
			apply(0, src)
		} else {
			copy(out, src)
		}
		return nil
	}
	inv := 1 / float64(m)
	rel := releaserOf(tp)
	next, prev := members[(pos+1)%m], members[(pos+m-1)%m]
	// Reduce-scatter: after step s, the chunk this node just received
	// carries the partial sum of s+2 ring predecessors. Step 0 sends this
	// node's own contribution, each later step the sum written the step
	// before.
	for s := 0; s < m-1; s++ {
		sc := (pos + m - s) % m
		lo, hi := chunkBounds(d, m, sc)
		from := out
		if s == 0 {
			from = src
		}
		if err := tp.Send(self, next, ringWire(from[lo:hi])); err != nil {
			return err
		}
		rc := (pos + m - s - 1) % m
		lo, hi = chunkBounds(d, m, rc)
		buf, err := recv(self, prev)
		if err != nil {
			return err
		}
		if s < m-2 {
			err = f64Sum(out[lo:hi], src[lo:hi], buf)
		} else {
			err = f64Mean(out[lo:hi], src[lo:hi], buf, inv)
		}
		release(rel, self, prev, buf)
		if err != nil {
			return fmt.Errorf("cluster: ring reduce chunk %d: %w", rc, err)
		}
	}
	// All-gather: circulate the reduced chunks, the owned one (the last
	// step's) first.
	lo, hi := chunkBounds(d, m, (pos+1)%m)
	var cur []byte
	if rel != nil {
		cur = ringWire(out[lo:hi])
	} else {
		cur = f64Bytes(out[lo:hi])
	}
	for s := 0; s < m-1; s++ {
		if err := tp.Send(self, next, cur); err != nil {
			return err
		}
		if s > 0 {
			release(rel, self, prev, cur)
		}
		rc := (pos + m - s) % m
		lo, hi := chunkBounds(d, m, rc)
		cur, err = recv(self, prev)
		if err != nil {
			return err
		}
		if apply != nil && s == m-2 {
			break // applied from the frame below
		}
		if err := f64Copy(out[lo:hi], cur); err != nil {
			return fmt.Errorf("cluster: ring gather chunk %d: %w", rc, err)
		}
	}
	if apply != nil {
		last := (pos + 2) % m
		lo, hi = chunkBounds(d, m, last)
		mean, err := f64Frame(out[lo:hi], cur)
		if err != nil {
			return fmt.Errorf("cluster: ring gather chunk %d: %w", last, err)
		}
		apply(lo, mean)
		for c := 0; c < m; c++ {
			if c != last {
				lo, hi := chunkBounds(d, m, c)
				apply(lo, out[lo:hi])
			}
		}
	}
	release(rel, self, prev, cur)
	return nil
}

// RingOrder is the in-process reference for the ring all-reduce: it
// leaves in agg the mean ringAllReduceGroup computes over the same inputs,
// bit for bit, without a transport. Chunk c of the m inputs (chunkBounds)
// starts as input c's gradient, inputs c+1, ..., c+m-1 (mod m) each add
// theirs on the left, and the sum is multiplied by 1/m. A selection is
// densified first, as the ring densifies it; a group shrunk by elastic
// recovery is the survivors' inputs in member order.
type RingOrder struct{}

// Exchange implements dist.GradientExchange.
func (RingOrder) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	m, d := len(ins), len(agg)
	if m == 0 {
		return fmt.Errorf("cluster: exchange with no inputs") //sidco:errclass caller misuse, deliberately fatal
	}
	g := make([][]float64, m)
	for w, in := range ins {
		g[w] = in.Dense
		if in.Sparse != nil {
			g[w] = make([]float64, d)
			in.Sparse.AddTo(g[w])
		}
	}
	inv := 1 / float64(m)
	for c := 0; c < m; c++ {
		lo, hi := chunkBounds(d, m, c)
		for i := lo; i < hi; i++ {
			acc := g[c][i]
			for j := 1; j < m; j++ {
				acc = g[(c+j)%m][i] + acc
			}
			agg[i] = acc * inv
		}
	}
	return nil
}

// allGatherGroup circulates each member's payload once around the ring
// in m-1 forwarding steps — the collective for sparse gradients, whose
// irregular supports cannot be reduced in-ring without densifying. bufs
// (reused result storage, may be nil) is grown to m slots and returned,
// indexed by member *position*: bufs[pos] holds members[pos]'s payload,
// the caller's own payload aliased at its position.
func allGatherGroup(tp Transport, recv linkRecv, members []int, self int, own []byte, bufs [][]byte) ([][]byte, error) {
	pos, err := checkMember(tp, members, self)
	if err != nil {
		return nil, err
	}
	m := len(members)
	if cap(bufs) < m {
		bufs = make([][]byte, m)
	}
	bufs = bufs[:m]
	bufs[pos] = own
	cur := own
	next, prev := members[(pos+1)%m], members[(pos+m-1)%m]
	for s := 0; s < m-1; s++ {
		if err := tp.Send(self, next, cur); err != nil {
			return nil, err
		}
		cur, err = recv(self, prev)
		if err != nil {
			return nil, err
		}
		bufs[(pos+m-1-s)%m] = cur
	}
	return bufs, nil
}

// releaseGathered hands back, on a lending transport, the payloads
// allGatherGroup received into bufs: every slot but self's own, all of
// them off the link from self's ring predecessor.
func releaseGathered(rel releaser, members []int, self int, bufs [][]byte) {
	if rel == nil {
		return
	}
	m, pos := len(members), memberPos(members, self)
	prev := members[(pos+m-1)%m]
	for p, b := range bufs {
		if p != pos {
			rel.Release(self, prev, b)
		}
	}
}

// psServeGroup is the server half of the parameter-server exchange: one
// push per surviving worker, received in member (ascending-rank) order —
// the order that keeps aggregation deterministic — then the reply
// broadcast to the same set; 2N messages across both halves. combine sees
// both the member position (0 = first survivor, which defines the round's
// dimension) and the worker's node id; a push goes back to a lending
// transport once combine returns.
func psServeGroup(tp Transport, recv linkRecv, server int, workers []int, combine func(pos, worker int, payload []byte) error, reply func() ([]byte, error)) error {
	rel := releaserOf(tp)
	for pos, w := range workers {
		payload, err := recv(server, w)
		if err != nil {
			return err
		}
		err = combine(pos, w, payload)
		release(rel, server, w, payload)
		if err != nil {
			return fmt.Errorf("cluster: ps combine worker %d: %w", w, err)
		}
	}
	out, err := reply()
	if err != nil {
		return fmt.Errorf("cluster: ps reply: %w", err)
	}
	for _, w := range workers {
		if err := tp.Send(server, w, out); err != nil {
			return err
		}
	}
	return nil
}

// chunkBounds splits d elements into n near-equal chunks (the standard
// balanced split: chunk c covers [c*d/n, (c+1)*d/n)).
func chunkBounds(d, n, c int) (lo, hi int) {
	return c * d / n, (c + 1) * d / n
}

// littleEndian reports whether this host keeps a float64 in memory in the
// ring's wire byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ringWire returns a reduce-scatter chunk's wire bytes: a view of xs on a
// little-endian host, a little-endian copy elsewhere.
func ringWire(xs []float64) []byte {
	if littleEndian {
		return f64View(xs)
	}
	return f64Bytes(xs)
}

// f64View reinterprets xs's memory as bytes, without copying; on a
// little-endian host they are exactly f64Bytes(xs). It and f64sOf are the
// package's uses of unsafe. The view aliases xs, so it may be sent only
// under the Transport's reuse rule (receivers never write a payload).
func f64View(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// f64sOf reinterprets a received ring chunk's bytes as its float64 values,
// without copying: ok only on a little-endian host and when buf starts on an
// 8-byte boundary (a Go allocation of 8 bytes or more does; a payload sliced
// out of a larger frame need not). The view aliases buf, so it is read only
// while the receiver still holds the payload.
func f64sOf(buf []byte) (xs []float64, ok bool) {
	p := unsafe.Pointer(unsafe.SliceData(buf))
	if !littleEndian || uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(buf)/8), true
}

// f64Frame returns a received ring chunk's values where they are: buf
// itself (f64sOf) or, where it cannot be viewed, buf decoded into dst,
// which it returns.
//
//sidco:errclass geometry violation means a buggy peer, deliberately fatal
func f64Frame(dst []float64, buf []byte) ([]float64, error) {
	if len(buf) != 8*len(dst) {
		return nil, fmt.Errorf("payload %d bytes, want %d", len(buf), 8*len(dst))
	}
	if xs, ok := f64sOf(buf); ok {
		return xs, nil
	}
	return dst, f64Copy(dst, buf)
}

// f64Bytes serialises a float64 slice little-endian into a fresh buffer. A
// ring chunk is raw (headerless): both ends of a ring step know the chunk
// geometry.
func f64Bytes(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// f64Sum writes dst = src + buf elementwise, reading buf in place where
// f64sOf can view it (dst and src may alias, so a view cannot be made by
// decoding into dst first).
//
//sidco:errclass geometry violation means a buggy peer, deliberately fatal
func f64Sum(dst, src []float64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("payload %d bytes, want %d", len(buf), 8*len(dst))
	}
	src = src[:len(dst)]
	if xs, ok := f64sOf(buf); ok {
		xs = xs[:len(dst)]
		for i := range dst {
			dst[i] = src[i] + xs[i]
		}
		return nil
	}
	for i := range dst {
		dst[i] = src[i] + math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// f64Mean writes dst = (src + buf) * inv elementwise, reading buf as f64Sum
// does.
//
//sidco:errclass geometry violation means a buggy peer, deliberately fatal
func f64Mean(dst, src []float64, buf []byte, inv float64) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("payload %d bytes, want %d", len(buf), 8*len(dst))
	}
	src = src[:len(dst)]
	if xs, ok := f64sOf(buf); ok {
		xs = xs[:len(dst)]
		for i := range dst {
			dst[i] = (src[i] + xs[i]) * inv
		}
		return nil
	}
	for i := range dst {
		dst[i] = (src[i] + math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))) * inv
	}
	return nil
}

// f64Copy decodes buf into dst: a copy of the viewed values where f64sOf
// can view buf.
//
//sidco:errclass geometry violation means a buggy peer, deliberately fatal
func f64Copy(dst []float64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("payload %d bytes, want %d", len(buf), 8*len(dst))
	}
	if xs, ok := f64sOf(buf); ok {
		copy(dst, xs)
		return nil
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}
