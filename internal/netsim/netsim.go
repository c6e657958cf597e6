// Package netsim models the communication stage of synchronous
// data-parallel training: ring all-reduce for dense gradients, all-gather
// for sparse (index, value) gradients, and a parameter-server alternative.
// Costs follow the standard alpha-beta (latency-bandwidth) collective
// model.
package netsim

import "fmt"

// Network describes the cluster fabric.
type Network struct {
	// Workers is the number of training nodes N.
	Workers int
	// BandwidthBps is per-link bandwidth in bits/second (the paper's
	// dedicated cluster uses 25 Gbps Ethernet).
	BandwidthBps float64
	// LatencySec is the per-message latency alpha.
	LatencySec float64
}

// Cluster25GbE returns the paper's dedicated 8-node cluster fabric.
func Cluster25GbE(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 25e9, LatencySec: 20e-6}
}

// NVLinkNode returns the shared multi-GPU single-node fabric of the
// Figure 13 experiment (fast intra-node interconnect).
func NVLinkNode(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 200e9, LatencySec: 5e-6}
}

// DyadicLab returns a test fabric whose alpha-beta arithmetic is exact
// in float64: bandwidth 2^27 bits/s and latency 2^-20 s, both powers of
// two, so a transfer of b bytes costs b*2^-24 seconds — a dyadic
// rational for any integer payload size. Every closed form in this
// package is then a finite sum/product of dyadic rationals well inside
// float64's 53-bit mantissa, and cluster.Instrumented's incremental
// accumulation of the same quantities lands on bit-identical values.
// That is the fabric the trace-assembly cross-checks run on: assembled
// critical paths must equal these formulas exactly, not approximately.
// (~128 Mbps with ~1 microsecond latency — a plausible slow fabric, but
// chosen for representability, not realism.)
//
//sidco:oracle the exact fabric the trace-assembly tests compare against
func DyadicLab(workers int) Network {
	return Network{Workers: workers, BandwidthBps: 1 << 27, LatencySec: 1.0 / (1 << 20)}
}

func (n Network) validate() error {
	if n.Workers < 1 {
		return fmt.Errorf("netsim: %d workers", n.Workers)
	}
	if n.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: bandwidth %v", n.BandwidthBps)
	}
	return nil
}

// transfer returns the time to move b bytes over one link.
func (n Network) transfer(bytes float64) float64 {
	return bytes * 8 / n.BandwidthBps
}

// AllReduceDense returns the time of a ring all-reduce over a dense buffer
// of the given size: 2(N-1) steps each moving bytes/N.
func (n Network) AllReduceDense(bytes int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	steps := float64(2 * (n.Workers - 1))
	return steps*n.transfer(float64(bytes)/float64(n.Workers)) + steps*n.LatencySec
}

// AllGatherSparse returns the time for every worker to receive every other
// worker's sparse gradient of the given encoded size (the collective used
// with sparsification, since sparse buffers cannot be reduced in-ring
// without densifying): N-1 steps each moving one worker's buffer.
func (n Network) AllGatherSparse(bytesPerWorker int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	steps := float64(n.Workers - 1)
	return steps*n.transfer(float64(bytesPerWorker)) + steps*n.LatencySec
}

// ParameterServer returns the time for all workers to push their (sparse
// or dense) gradient of pushBytes to a central server and pull back an
// aggregate of pullBytes, assuming the server link is the bottleneck.
// Every push and every pull is a separate message, so each of the 2N
// transfers pays the per-message latency alpha.
func (n Network) ParameterServer(pushBytes, pullBytes int) float64 {
	if err := n.validate(); err != nil || n.Workers == 1 {
		return 0
	}
	w := float64(n.Workers)
	inbound := w * (n.transfer(float64(pushBytes)) + n.LatencySec)
	outbound := w * (n.transfer(float64(pullBytes)) + n.LatencySec)
	return inbound + outbound
}

// CommTime returns the gradient-exchange time for one iteration given the
// dense dimension and the per-worker sparse payload size in bytes; dense
// (nil payload semantics: bytesSparse < 0) uses ring all-reduce, sparse
// uses all-gather.
func (n Network) CommTime(denseBytes, sparseBytes int, compressed bool) float64 {
	return n.CollectiveTime(CollectiveAuto, denseBytes, sparseBytes, compressed)
}

// Collective names a gradient-exchange schedule. internal/cluster executes
// the same three schedules as real message exchanges; this package prices
// them analytically.
type Collective int

const (
	// CollectiveAuto picks ring all-reduce for dense exchanges and
	// all-gather for sparse ones — the pairing the paper's cluster uses.
	CollectiveAuto Collective = iota
	// CollectiveRing is ring all-reduce: 2(N-1) steps of bytes/N.
	CollectiveRing
	// CollectiveAllGather is the sparse all-gather ring: N-1 steps each
	// forwarding one worker's whole payload.
	CollectiveAllGather
	// CollectivePS is the central parameter server: N pushes, N pulls.
	CollectivePS
)

// String implements fmt.Stringer; the names are what ParseCollective
// accepts.
func (c Collective) String() string {
	switch c {
	case CollectiveAuto:
		return "auto"
	case CollectiveRing:
		return "ring"
	case CollectiveAllGather:
		return "allgather"
	case CollectivePS:
		return "ps"
	default:
		return fmt.Sprintf("collective(%d)", int(c))
	}
}

// ParseCollective resolves a collective name (the String values) — the
// -collective flags of the binaries.
func ParseCollective(name string) (Collective, error) {
	for c := CollectiveAuto; c <= CollectivePS; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown collective %q (want auto, ring, allgather or ps)", name)
}

// Resolve names the schedule an exchange over c runs: CollectiveAuto is
// all-gather when the exchange is compressed (sparse) and ring
// all-reduce when dense; every other collective is itself.
func (c Collective) Resolve(compressed bool) Collective {
	switch {
	case c != CollectiveAuto:
		return c
	case compressed:
		return CollectiveAllGather
	default:
		return CollectiveRing
	}
}

// CollectiveTime prices one gradient exchange over the chosen collective.
// denseBytes is the full-model payload (used by ring and as the PS pull
// size), sparseBytes the per-worker encoded payload (used by all-gather
// and as the PS push size when compressed). An unknown collective, like
// an invalid network, costs 0.
func (n Network) CollectiveTime(c Collective, denseBytes, sparseBytes int, compressed bool) float64 {
	switch c.Resolve(compressed) {
	case CollectiveRing:
		return n.AllReduceDense(denseBytes)
	case CollectiveAllGather:
		return n.AllGatherSparse(sparseBytes)
	case CollectivePS:
		push := denseBytes
		if compressed {
			push = sparseBytes
		}
		return n.ParameterServer(push, denseBytes)
	}
	return 0
}

// Message-count formulas of the three collectives, shared with
// internal/cluster's instrumented-transport tests: the analytic model
// charges one latency alpha per step, and the message-passing engine must
// put exactly that many messages on the wire.

// RingMessages returns the messages each node sends in a ring all-reduce
// of n workers: N-1 reduce-scatter steps plus N-1 all-gather steps.
func RingMessages(n int) int {
	if n <= 1 {
		return 0
	}
	return 2 * (n - 1)
}

// AllGatherMessages returns the messages each node sends in a ring
// all-gather of n workers: N-1 forwarding steps.
func AllGatherMessages(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// PSMessages returns the total messages of a parameter-server exchange
// with n workers: N pushes plus N pulls. Unlike the ring collectives a
// single worker still exchanges 2 messages — the server is a distinct
// node.
func PSMessages(n int) int {
	if n < 1 {
		return 0
	}
	return 2 * n
}

// Byte closed forms of the three collectives. Like the message counts
// these are exact integer identities, not estimates: the instrumented
// transport's byte counters must land on them to the byte, for any wire
// format, because the formulas take the actual encoded payload sizes as
// inputs (encoding.Size supplies them for the data-independent formats).

// AllGatherTrafficBytes returns the bytes the ring all-gather moves to
// distribute ONE worker's encoded payload to the n-1 others: the payload
// is forwarded once per step. Sum it over every worker's (per-chunk)
// payload for the cluster total; divide that by n for the per-node send
// total only when payloads are uniform.
func AllGatherTrafficBytes(n, payloadBytes int) int {
	if n <= 1 {
		return 0
	}
	return (n - 1) * payloadBytes
}

// RingTrafficBytes returns the total bytes all n nodes send in one ring
// all-reduce over a dense buffer of denseBytes: each of the 2(n-1) steps
// moves every node's chunk, and the chunks partition the buffer, so each
// step moves exactly denseBytes across the cluster — regardless of how
// unevenly the d/n chunking rounds.
func RingTrafficBytes(n, denseBytes int) int {
	if n <= 1 {
		return 0
	}
	return 2 * (n - 1) * denseBytes
}

// PSTrafficBytes returns the total bytes of a parameter-server exchange
// with n workers: every worker pushes pushBytes and pulls pullBytes.
func PSTrafficBytes(n, pushBytes, pullBytes int) int {
	if n < 1 {
		return 0
	}
	return n * (pushBytes + pullBytes)
}
