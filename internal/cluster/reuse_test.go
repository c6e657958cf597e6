package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/tensor"
)

// The schedules send buffers a peer may still read after the sender's
// round is over: the ring's views of the gradient and the all-gather's
// encoded payload. The Transport doc states when a sent buffer may be
// written again; the TestSentBufferReuse tests drive free-running ranks
// (one NewNode per goroutine over a ChanTransport, nothing synchronising
// the ranks between rounds, as in a deployment) and rewrite every buffer
// the caller owns between rounds, as the trainer does. Run under -race
// they fail on a buffer written while a peer reads it; without it, a mixed
// read shows as a wrong bit in the checked mean.
//
// The TestReceivedBufferRelease tests are their receive-side twins: the
// same ranks over an all-local TCPTransport, which reads each frame into
// one the receiver released. A frame released before its last read is
// overwritten by the link's next frame while the receiver still reads it:
// -race sees the socket read write it, and the checked mean a wrong bit.

const reuseRounds = 300

// ranksOver opens the transport a free-running deployment of the given
// node count runs over.
type ranksOver func(t *testing.T, nodes int) Transport

func overChannels(t *testing.T, nodes int) Transport {
	t.Helper()
	tp, err := NewChanTransport(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func overTCP(t *testing.T, nodes int) Transport { return localTCP(t, nodes) }

// runFreeRanks runs round(nd, rank, r) for r in [0, reuseRounds) on one
// goroutine per worker rank, each over its own Node on one shared
// transport, and reports the first failure. Under PS the server rank
// serves the same rounds on a goroutine of its own.
func runFreeRanks(t *testing.T, over ranksOver, n int, coll netsim.Collective, round func(nd *Node, rank, r int) error) {
	t.Helper()
	tp := over(t, NodeCount(n, coll))
	defer tp.Close()
	nodes := make([]*Node, NodeCount(n, coll))
	for rank := range nodes {
		var err error
		if nodes[rank], err = NewNode(Config{Workers: n, Rank: rank, Collective: coll, Transport: tp}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for rank, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rank == n {
				if err := nd.Serve(0, reuseRounds); err != nil {
					errs[rank] = fmt.Errorf("server: %w", err)
					tp.Close()
				}
				return
			}
			for r := 0; r < reuseRounds; r++ {
				if err := round(nd, rank, r); err != nil {
					errs[rank] = fmt.Errorf("rank %d round %d: %w", rank, r, err)
					tp.Close() // unblock the peers
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// reuseGradients draws every rank's gradient of every round up front, so
// the ranks share nothing they write: grads[r][rank].
func reuseGradients(n, dim int, seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	grads := make([][][]float64, reuseRounds)
	for r := range grads {
		grads[r] = make([][]float64, n)
		for rank := range grads[r] {
			g := make([]float64, dim)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			grads[r][rank] = g
		}
	}
	return grads
}

// TestSentBufferReuseRing: the ring's reduce-scatter sends views of src
// and out, which the caller rewrites (src) and overwrites (out) as soon as
// Exchange returns. out must hold the ring-order mean bit for bit every
// round. Sending the owned chunk as a view of out too over channels fails
// this test under -race at N = 2: the successor copies that chunk at its
// last step, after this rank has returned and started overwriting out.
func TestSentBufferReuseRing(t *testing.T) { freeRing(t, overChannels) }

// TestReceivedBufferReleaseRing: over TCP the ring releases each
// reduce-scatter frame once reduced and each all-gather frame once copied
// and forwarded, and sends its owned chunk as a view of out.
func TestReceivedBufferReleaseRing(t *testing.T) { freeRing(t, overTCP) }

func freeRing(t *testing.T, over ranksOver) {
	const dim = 37 // uneven chunks
	for _, n := range []int{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			grads := reuseGradients(n, dim, int64(n))
			// Chunk c's sum starts at ring position c and adds each
			// successor's contribution to the running sum.
			want := make([][]float64, reuseRounds)
			for r := range want {
				want[r] = make([]float64, dim)
				for c := 0; c < n; c++ {
					lo, hi := chunkBounds(dim, n, c)
					for i := lo; i < hi; i++ {
						acc := grads[r][c][i]
						for k := 1; k < n; k++ {
							acc = grads[r][(c+k)%n][i] + acc
						}
						want[r][i] = acc * (1 / float64(n))
					}
				}
			}
			srcs, outs := make([][]float64, n), make([][]float64, n)
			for rank := range srcs {
				srcs[rank], outs[rank] = make([]float64, dim), make([]float64, dim)
			}
			runFreeRanks(t, over, n, netsim.CollectiveRing, func(nd *Node, rank, r int) error {
				src, out := srcs[rank], outs[rank]
				copy(src, grads[r][rank])
				for i := range out {
					out[i] = math.NaN()
				}
				if err := nd.Exchange(r, []dist.ExchangeInput{{Worker: rank, Dense: src}}, out); err != nil {
					return err
				}
				for i, v := range out {
					if math.Float64bits(v) != math.Float64bits(want[r][i]) {
						return fmt.Errorf("element %d = %v, want %v", i, v, want[r][i])
					}
				}
				return nil
			})
		})
	}
}

// TestSentBufferReuseAllGather: the all-gather's encoded payload is
// forwarded around the ring and decoded by every peer after its gather, so
// a rank that runs a round ahead must not encode into the buffer a slower
// peer is still decoding. Each rank rewrites its selection in place every
// round; the merged mean must equal the in-process merge bit for bit.
func TestSentBufferReuseAllGather(t *testing.T) {
	freeSparse(t, overChannels, netsim.CollectiveAllGather)
}

// TestReceivedBufferReleaseAllGather: over TCP a rank releases every
// gathered payload once it has forwarded and decoded it.
func TestReceivedBufferReleaseAllGather(t *testing.T) {
	freeSparse(t, overTCP, netsim.CollectiveAllGather)
}

// TestReceivedBufferReleasePS: over TCP the server releases each push once
// decoded, and a worker the reply once decoded.
func TestReceivedBufferReleasePS(t *testing.T) {
	freeSparse(t, overTCP, netsim.CollectivePS)
}

// freeSparse runs free-running ranks exchanging top-k selections over a
// sparse collective and checks every merged mean bit for bit.
func freeSparse(t *testing.T, over ranksOver, coll netsim.Collective) {
	const dim = 96
	for _, n := range []int{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			grads := reuseGradients(n, dim, int64(10+n))
			sel := make([][]tensor.Sparse, reuseRounds)
			want := make([]tensor.Sparse, reuseRounds)
			for r := range sel {
				sel[r] = make([]tensor.Sparse, n)
				for rank := range sel[r] {
					s, err := compress.FreshCompress(compress.NewTopK(), grads[r][rank], 0.25)
					if err != nil {
						t.Fatal(err)
					}
					sel[r][rank] = *s
				}
				tensor.MeanSparseInto(&want[r], sel[r])
			}
			locals, means := make([]tensor.Sparse, n), make([]tensor.Sparse, n)
			runFreeRanks(t, over, n, coll, func(nd *Node, rank, r int) error {
				local, mean := &locals[rank], &means[rank]
				local.CopyFrom(&sel[r][rank])
				ok, err := nd.ExchangeSparse(r, []dist.ExchangeInput{{Worker: rank, Sparse: local}}, mean)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("sparse round declined")
				}
				w := &want[r]
				if mean.Dim != w.Dim || len(mean.Idx) != len(w.Idx) {
					return fmt.Errorf("mean has %d of %d elements, want %d of %d", len(mean.Idx), mean.Dim, len(w.Idx), w.Dim)
				}
				for i, j := range w.Idx {
					if mean.Idx[i] != j || math.Float64bits(mean.Vals[i]) != math.Float64bits(w.Vals[i]) {
						return fmt.Errorf("stored element %d = (%d, %v), want (%d, %v)", i, mean.Idx[i], mean.Vals[i], j, w.Vals[i])
					}
				}
				return nil
			})
		})
	}
}
