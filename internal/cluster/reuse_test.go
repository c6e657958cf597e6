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
// written again; these tests drive free-running ranks (one NewNode per
// goroutine over a ChanTransport, nothing synchronising the ranks between
// rounds, as in a deployment) and rewrite every buffer the caller owns
// between rounds, as the trainer does. Run under -race they fail on a
// buffer written while a peer reads it; without it, a mixed read shows as
// a wrong bit in the checked mean.

const reuseRounds = 300

// runFreeRanks runs round(nd, rank, r) for r in [0, rounds) on one
// goroutine per rank, each over its own Node on one shared ChanTransport,
// and reports the first failure.
func runFreeRanks(t *testing.T, n int, coll netsim.Collective, round func(nd *Node, rank, r int) error) {
	t.Helper()
	tp, err := NewChanTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	nodes := make([]*Node, n)
	for rank := range nodes {
		if nodes[rank], err = NewNode(Config{Workers: n, Rank: rank, Collective: coll, Transport: tp}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
// round. Sending the owned chunk as a view of out too fails this test
// under -race at N = 2: the successor copies that chunk at its last step,
// after this rank has returned and started overwriting out.
func TestSentBufferReuseRing(t *testing.T) {
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
			runFreeRanks(t, n, netsim.CollectiveRing, func(nd *Node, rank, r int) error {
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
			runFreeRanks(t, n, netsim.CollectiveAllGather, func(nd *Node, rank, r int) error {
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
