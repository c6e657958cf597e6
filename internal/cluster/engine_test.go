package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomInputs builds per-worker dense gradients plus top-k selections.
func randomInputs(t *testing.T, workers, dim int, delta float64, seed int64) []dist.ExchangeInput {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		dense := make([]float64, dim)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense}
		if delta > 0 {
			s, err := compress.FreshCompress(compress.NewTopK(), dense, delta)
			if err != nil {
				t.Fatal(err)
			}
			ins[w].Sparse = s
		}
	}
	return ins
}

func engineExchange(t *testing.T, cfg Config, ins []dist.ExchangeInput, dim int) ([]float64, *Engine) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, dim)
	if err := e.Exchange(0, ins, agg); err != nil {
		e.Close()
		t.Fatal(err)
	}
	return agg, e
}

// TestEngineMatchesInProcessBitwise: the encoded collectives reproduce the
// in-process reducer bit-for-bit, including where the dimension leaves
// nothing to chunk: d = 3 at full support and the empty d = 0 vector.
func TestEngineMatchesInProcessBitwise(t *testing.T) {
	for _, tc := range []struct {
		dim   int
		delta float64
	}{
		{513, 0.05}, // odd: uneven ring chunks
		{3, 1},
		{0, 0},
	} {
		for _, workers := range []int{1, 2, 4, 7} {
			ins := randomInputs(t, workers, tc.dim, tc.delta, int64(workers))
			if tc.dim == 0 { // no compressor takes an empty gradient; the collective must
				for w := range ins {
					ins[w].Sparse = &tensor.Sparse{}
				}
			}
			want := make([]float64, tc.dim)
			if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
				t.Fatal(err)
			}
			for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
				got, e := engineExchange(t, Config{Workers: workers, Collective: coll, Verify: true}, ins, tc.dim)
				if len(got) != tc.dim {
					t.Fatalf("dim=%d workers=%d %v: aggregate has %d elements", tc.dim, workers, coll, len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("dim=%d workers=%d %v: element %d = %v, want %v (must be bit-identical)",
							tc.dim, workers, coll, i, got[i], want[i])
					}
				}
				e.Close()
			}
		}
	}
}

func TestEngineRingDenseMatchesWithinReassociation(t *testing.T) {
	const dim = 257
	workers := 4
	ins := randomInputs(t, workers, dim, 0, 9)
	want := make([]float64, dim)
	if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
		t.Fatal(err)
	}
	got, e := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveRing, Verify: true}, ins, dim)
	defer e.Close()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("element %d = %v, want %v within reassociation tolerance", i, got[i], want[i])
		}
	}
}

// TestEngineAutoMirrorsNetsim: one Auto engine resolves every round
// against that round's inputs — sparse rounds take the all-gather
// schedule (N-1 messages per node, no server, bit-identical to the
// in-process reducer), dense rounds the ring — and stays live across the
// switch.
func TestEngineAutoMirrorsNetsim(t *testing.T) {
	const dim = 128
	workers := 3
	sparse := randomInputs(t, workers, dim, 0.1, 3)
	dense := randomInputs(t, workers, dim, 0, 3)
	want := make([]float64, dim)
	if err := (dist.InProcess{}).Exchange(0, sparse, want); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Workers: workers, Collective: netsim.CollectiveAuto, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	agg := make([]float64, dim)
	for step, tc := range []struct {
		name string
		ins  []dist.ExchangeInput
		msgs int
	}{
		{"sparse", sparse, workers * netsim.AllGatherMessages(workers)},
		{"dense", dense, workers * netsim.RingMessages(workers)},
		{"sparse again", sparse, workers * netsim.AllGatherMessages(workers)},
	} {
		e.Transport().Reset()
		if err := e.Exchange(step, tc.ins, agg); err != nil {
			t.Fatalf("auto %s: %v", tc.name, err)
		}
		if msgs, _ := e.Transport().Totals(); msgs != tc.msgs {
			t.Errorf("auto %s: %d messages, want %d", tc.name, msgs, tc.msgs)
		}
		if tc.ins[0].Sparse == nil {
			continue
		}
		for i := range want {
			if agg[i] != want[i] {
				t.Fatalf("auto %s: element %d = %v, want %v (must be bit-identical)", tc.name, i, agg[i], want[i])
			}
		}
	}
}

func TestEngineBytesPerStepMatchEncodingAccounting(t *testing.T) {
	const dim = 400
	workers := 4
	ins := randomInputs(t, workers, dim, 0.05, 11)
	nnz := ins[0].Sparse.NNZ()
	for _, in := range ins {
		if in.Sparse.NNZ() != nnz {
			t.Fatalf("top-k nnz not uniform: %d vs %d", in.Sparse.NNZ(), nnz)
		}
	}

	t.Run("allgather-pairs64", func(t *testing.T) {
		_, e := engineExchange(t, Config{Workers: workers, Collective: netsim.CollectiveAllGather}, ins, dim)
		defer e.Close()
		_, bytes := e.Transport().Totals()
		// Each worker's encoded buffer traverses N-1 links.
		if want := (workers - 1) * workers * encoding.Pairs64Size(dim, nnz); bytes != want {
			t.Errorf("measured %d bytes, encoding accounting says %d", bytes, want)
		}
	})
	t.Run("allgather-per-node", func(t *testing.T) {
		// The closed form holds node by node, not just in total: every
		// node sends and receives netsim.AllGatherMessages(N) messages,
		// and ships each origin's encoding but its ring successor's. A
		// lone node moves nothing.
		for _, n := range []int{1, 2, 4} {
			ins := randomInputs(t, n, dim, 0.05, int64(20+n))
			size := make([]int, n)
			total := 0
			for w, in := range ins {
				size[w], _ = encoding.Size(encoding.FormatPairs64, dim, in.Sparse.NNZ())
				total += size[w]
			}
			_, e := engineExchange(t, Config{Workers: n, Collective: netsim.CollectiveAllGather}, ins, dim)
			tp := e.Transport()
			for node := 0; node < n; node++ {
				next, prev := (node+1)%n, (node+n-1)%n
				sent, recvd := tp.LinkStats(node, next), tp.RecvLinkStats(prev, node)
				if sent.Messages != netsim.AllGatherMessages(n) || recvd.Messages != netsim.AllGatherMessages(n) {
					t.Errorf("N=%d node %d: sent %d, received %d messages, want %d each",
						n, node, sent.Messages, recvd.Messages, netsim.AllGatherMessages(n))
				}
				if want := total - size[next]; n > 1 && sent.Bytes != want {
					t.Errorf("N=%d node %d: sent %d bytes, want %d", n, node, sent.Bytes, want)
				}
				if want := total - size[node]; n > 1 && recvd.Bytes != want {
					t.Errorf("N=%d node %d: received %d bytes, want %d", n, node, recvd.Bytes, want)
				}
			}
			msgs, bytes := tp.Totals()
			rmsgs, rbytes := tp.RecvTotals()
			if want := n * netsim.AllGatherMessages(n); msgs != want || rmsgs != want {
				t.Errorf("N=%d: %d sent, %d received messages, want %d", n, msgs, rmsgs, want)
			}
			if want := (n - 1) * total; bytes != want || rbytes != want {
				t.Errorf("N=%d: %d sent, %d received bytes, want %d", n, bytes, rbytes, want)
			}
			e.Close()
		}
	})
	t.Run("ps-pairs64", func(t *testing.T) {
		e, err := New(Config{Workers: workers, Collective: netsim.CollectivePS})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		agg := make([]float64, dim)
		if err := e.Exchange(0, ins, agg); err != nil {
			t.Fatal(err)
		}
		aggNNZ := 0
		for _, v := range agg {
			if v != 0 {
				aggNNZ++
			}
		}
		_, bytes := e.Transport().Totals()
		want := workers*encoding.Pairs64Size(dim, nnz) + workers*encoding.Pairs64Size(dim, aggNNZ)
		if bytes != want {
			t.Errorf("measured %d bytes, encoding accounting says %d", bytes, want)
		}
		msgs, _ := e.Transport().Totals()
		if msgs != netsim.PSMessages(workers) {
			t.Errorf("%d messages, want %d", msgs, netsim.PSMessages(workers))
		}
	})
	t.Run("reset-isolates-steps", func(t *testing.T) {
		e, err := New(Config{Workers: workers, Collective: netsim.CollectiveAllGather})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		agg := make([]float64, dim)
		perStep := (workers - 1) * workers * encoding.Pairs64Size(dim, nnz)
		for step := 0; step < 3; step++ {
			e.Transport().Reset()
			if err := e.Exchange(step, ins, agg); err != nil {
				t.Fatal(err)
			}
			if _, bytes := e.Transport().Totals(); bytes != perStep {
				t.Fatalf("step %d: %d bytes, want %d", step, bytes, perStep)
			}
		}
	})
}

// TestConfigValidate is the one table over the one validation: every
// combination Engine, Node and the sidco-node launcher refuse, each with
// the fragment of the classified message that names the problem.
func TestConfigValidate(t *testing.T) {
	small, err := NewChanTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = accepted
	}{
		{"defaults", Config{Workers: 2}, ""},
		{"ps-server-rank", Config{Workers: 2, Rank: 2, Collective: netsim.CollectivePS}, ""},
		{"retries-with-timeout", Config{Workers: 2, StepTimeout: time.Second, MaxStepRetries: 2}, ""},
		{"no-workers", Config{Workers: 0}, "Workers = 0"},
		{"unknown-collective", Config{Workers: 2, Collective: netsim.Collective(99)}, "unknown collective"},
		{"unknown-wire", Config{Workers: 2, Format: Wire(99)}, "unknown wire format"},
		{"negative-step-timeout", Config{Workers: 2, StepTimeout: -time.Second}, "StepTimeout"},
		{"negative-retries", Config{Workers: 2, StepTimeout: time.Second, MaxStepRetries: -1}, "MaxStepRetries = -1"},
		{"retries-without-timeout", Config{Workers: 2, Collective: netsim.CollectiveAllGather, MaxStepRetries: 1}, "requires StepTimeout"},
		{"retries-at-64-nodes", Config{Workers: 63, Collective: netsim.CollectivePS, StepTimeout: time.Second, MaxStepRetries: 1}, ""},
		{"retries-over-64-nodes", Config{Workers: 64, Collective: netsim.CollectivePS, StepTimeout: time.Second, MaxStepRetries: 1}, "over 65 nodes"},
		{"no-retries-over-64-nodes", Config{Workers: 100}, ""},
		{"rank-negative", Config{Workers: 2, Rank: -1}, "outside the 2-node deployment"},
		{"rank-out-of-range", Config{Workers: 2, Rank: 4, Collective: netsim.CollectivePS}, "outside the 3-node deployment"},
		{"server-slot-without-ps", Config{Workers: 2, Rank: 2, Collective: netsim.CollectiveAllGather}, "server slot"},
		{"transport-too-small", Config{Workers: 2, Collective: netsim.CollectivePS, Transport: small}, "transport has 2 nodes, need 3"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestEngineMisuse covers New running the pre-flight and the call-time
// refusals that are not configuration: a wrong input count, a second
// Close, an exchange after Close.
func TestEngineMisuse(t *testing.T) {
	if _, err := New(Config{Workers: 2, MaxStepRetries: 2}); err == nil {
		t.Error("New must refuse what Validate refuses")
	}
	e, err := New(Config{Workers: 2, Rank: 7}) // Rank is not New's: an Engine hosts every rank
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exchange(0, make([]dist.ExchangeInput, 3), make([]float64, 4)); err == nil {
		t.Error("wrong input count should error")
	}
	e.Close()
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	ins := randomInputs(t, 2, 4, 0, 1)
	if err := e.Exchange(0, ins, make([]float64, 4)); err == nil {
		t.Error("exchange on closed engine should error")
	}
}

// TestEngineExchangeSteadyStateAllocs guards the hot path over channels:
// the ring pays one fresh buffer per node per round, for the chunk it owns
// after the reduce-scatter, because a channel hands the successor that
// buffer itself (every other send is a view of the gradient or a forwarded
// payload); the encoded collectives reuse everything. In particular the PS
// round must not rebuild the worker member list per call. Over TCP the
// owned chunk is a view too, and TestEngineTCPExchangeSteadyStateBytes
// holds every collective at (almost) nothing.
func TestEngineExchangeSteadyStateAllocs(t *testing.T) {
	const workers, dim = 4, 512
	for _, tc := range []struct {
		name    string
		coll    netsim.Collective
		delta   float64
		ceiling float64
	}{
		{"ring", netsim.CollectiveRing, 0, workers},
		{"allgather", netsim.CollectiveAllGather, 0.05, 0},
		{"ps", netsim.CollectivePS, 0.05, 0},
	} {
		ins := randomInputs(t, workers, dim, tc.delta, 5)
		e, err := New(Config{Workers: workers, Collective: tc.coll})
		if err != nil {
			t.Fatal(err)
		}
		agg := make([]float64, dim)
		step := 0
		exchange := func() {
			if err := e.Exchange(step, ins, agg); err != nil {
				t.Fatal(err)
			}
			step++
		}
		for i := 0; i < 3; i++ {
			exchange() // grow every node's scratch
		}
		if got := testing.AllocsPerRun(50, exchange); got > tc.ceiling {
			t.Errorf("%s: %v allocs per exchange, ceiling %v", tc.name, got, tc.ceiling)
		}
		e.Close()
	}
}

// TestEngineTCPExchangeSteadyStateBytes guards the hot path of the
// transport that ships. Over loopback sockets every received frame goes
// back to its link once read, and the link reads a later frame into it;
// the ring sends its owned chunk as a view. So in steady state an exchange
// at d = 2^16 allocates under 1 KiB, counted as MemStats.TotalAlloc, which
// also sees the transport's reader goroutines. A frame kept (not released)
// costs a whole frame per exchange: 128 KiB for a 4-way ring chunk.
//
// When the steady state starts is the ranks' timing: a link's free list
// grows by a frame the first time a frame arrives before the one before
// it went back, which at GOMAXPROCS=1 took up to 70 exchanges. That growth
// is bounded, a kept frame is not: so some window of exchanges, out of
// the first few, must stay under the ceiling.
func TestEngineTCPExchangeSteadyStateBytes(t *testing.T) {
	const dim, window, windows, ceiling = 1 << 16, 50, 20, 1 << 10
	for _, tc := range []struct {
		name  string
		coll  netsim.Collective
		delta float64
	}{
		{"ring", netsim.CollectiveRing, 0},
		{"allgather", netsim.CollectiveAllGather, 0.1},
		{"ps", netsim.CollectivePS, 0.1},
	} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, workers), func(t *testing.T) {
				ins := randomInputs(t, workers, dim, tc.delta, 7)
				e, err := New(Config{Workers: workers, Collective: tc.coll, Transport: localTCP(t, NodeCount(workers, tc.coll))})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				agg := make([]float64, dim)
				step := 0
				exchange := func() {
					if err := e.Exchange(step, ins, agg); err != nil {
						t.Fatal(err)
					}
					step++
				}
				for i := 0; i < 3; i++ {
					exchange() // grow every node's scratch
				}
				var per uint64
				for w := 0; w < windows; w++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < window; i++ {
						exchange()
					}
					runtime.ReadMemStats(&after)
					if per = (after.TotalAlloc - before.TotalAlloc) / window; per < ceiling {
						t.Logf("%d bytes allocated per exchange over exchanges %d-%d", per, step-window, step-1)
						return
					}
				}
				t.Errorf("%d bytes allocated per exchange in the last of %d windows of %d, ceiling %d", per, windows, window, ceiling)
			})
		}
	}
}

// TestTrainerTCPRingSteadyStateBytes guards the deployed dense step: one
// Workers=1 trainer per rank, each over its own Node on its own loopback
// TCP transport, the ring forced, so every step takes the spans route —
// the ring hands each chunk of the mean to the optimizer where it lands,
// the last one straight from its frame, through the closure the trainer
// bound once when it was built. Batches reuse their tensors. As in
// TestEngineTCPExchangeSteadyStateBytes, some window of steps out of the
// first few must allocate nothing at all (MemStats.Mallocs, transport
// readers included); a frame kept instead of released would cost a 40 KiB
// chunk per step at d = 10 k.
func TestTrainerTCPRingSteadyStateBytes(t *testing.T) {
	const window, windows = 50, 20
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("n%d", workers), func(t *testing.T) {
			ranks := ringDeployment(t, rankTCP(t, workers), Config{}, func(c *dist.TrainerConfig) {
				rng := rand.New(rand.NewSource(int64(c.FirstWorker)))
				c.Model = nn.NewSequential(nn.NewDense("d1", 64, 150, rng), &nn.ReLU{}, nn.NewDense("d2", 150, 4, rng))
				x, targets := nn.NewTensor(8, 64), make([]int, 8)
				c.Batch = func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
					for i := range targets {
						targets[i] = rng.Intn(4)
						for j := 0; j < 64; j++ {
							x.Data[i*64+j] = rng.NormFloat64() + float64(targets[i])
						}
					}
					return x, targets
				}
			})
			// One goroutine per rank for the whole test: spawning them per
			// step would be the only allocation left.
			start, done := make(chan struct{}), make(chan error)
			defer close(start)
			for _, rk := range ranks {
				go func() {
					for range start {
						_, err := rk.tr.Step()
						done <- err
					}
				}()
			}
			step := func() {
				for range ranks {
					start <- struct{}{}
				}
				for range ranks {
					if err := <-done; err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 3; i++ {
				step() // grow every scratch buffer and free list
			}
			for _, rk := range ranks {
				rk.rec.reset()
			}
			var mallocs, bytes uint64
			for w := 0; w < windows; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < window; i++ {
					step()
				}
				runtime.ReadMemStats(&after)
				mallocs, bytes = after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/window
				if mallocs == 0 {
					t.Logf("no allocation over steps %d-%d", 3+w*window, 3+(w+1)*window-1)
					for r, rk := range ranks {
						if rk.rec.flats != 0 || rk.rec.spans != (w+1)*window*workers {
							t.Fatalf("rank %d: %d StepFlat and %d StepSpan calls, want the spans route every step", r, rk.rec.flats, rk.rec.spans)
						}
					}
					return
				}
			}
			t.Errorf("%d allocations (%d bytes per step) in the last of %d windows of %d steps, want none", mallocs, bytes, windows, window)
		})
	}
}

// TestChannelExchangesLeaveInputsIntact: a channel hands the receiver the
// sender's own slice, so no wrapper over one may claim to lend its frames
// (releaserOf): the ring would then send its owned chunk as a view of a
// buffer the caller rewrites, with nothing ordering the peer's copy first.
// A method-presence check on the wrappers always finds one, and over
// channels that corrupts the caller's gradients. Engines over channels,
// bare and through FaultTransport (each inside Engine's Instrumented),
// must leave every input bit for bit as it was, on every collective.
func TestChannelExchangesLeaveInputsIntact(t *testing.T) {
	const workers, dim = 3, 101
	wrappers := []struct {
		name string
		wrap func(Transport) Transport
	}{
		{"chan", func(tp Transport) Transport { return tp }},
		{"fault-chan", func(tp Transport) Transport { return NewFaultTransport(tp, FaultPlan{}) }},
	}
	for _, w := range wrappers {
		for _, tc := range []struct {
			coll  netsim.Collective
			delta float64
		}{
			{netsim.CollectiveRing, 0},
			{netsim.CollectiveAllGather, 0.2},
			{netsim.CollectivePS, 0.2},
		} {
			t.Run(fmt.Sprintf("%s/%v", w.name, tc.coll), func(t *testing.T) {
				ch, err := NewChanTransport(NodeCount(workers, tc.coll))
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(Config{Workers: workers, Collective: tc.coll, Transport: w.wrap(ch), Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if releaserOf(e.Transport()) != nil {
					t.Fatal("the engine's transport over channels lends its frames")
				}
				ins := randomInputs(t, workers, dim, tc.delta, 3)
				keep := make([]dist.ExchangeInput, workers)
				for i, in := range ins {
					keep[i].Dense = append([]float64(nil), in.Dense...)
					if in.Sparse != nil {
						keep[i].Sparse = &tensor.Sparse{}
						keep[i].Sparse.CopyFrom(in.Sparse)
					}
				}
				agg := make([]float64, dim)
				for step := 0; step < 4; step++ {
					if err := e.Exchange(step, ins, agg); err != nil {
						t.Fatal(err)
					}
					for i, in := range ins {
						if !sameBits(in.Dense, keep[i].Dense) {
							t.Fatalf("step %d: worker %d's dense gradient changed", step, i)
						}
						if in.Sparse != nil && (!sameBits(in.Sparse.Vals, keep[i].Sparse.Vals) ||
							!slices.Equal(in.Sparse.Idx, keep[i].Sparse.Idx) || in.Sparse.Dim != keep[i].Sparse.Dim) {
							t.Fatalf("step %d: worker %d's selection changed", step, i)
						}
					}
				}
			})
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEngineFailStopOnBadInput(t *testing.T) {
	// A worker whose dense gradient disagrees with the aggregation
	// dimension must fail the round and leave the engine closed, not
	// deadlocked.
	e, err := New(Config{Workers: 3, Collective: netsim.CollectiveRing})
	if err != nil {
		t.Fatal(err)
	}
	ins := randomInputs(t, 3, 64, 0, 5)
	ins[1].Dense = ins[1].Dense[:10]
	if err := e.Exchange(0, ins, make([]float64, 64)); err == nil {
		t.Fatal("mismatched gradient accepted")
	}
	if err := e.Exchange(1, randomInputs(t, 3, 64, 0, 6), make([]float64, 64)); err == nil {
		t.Error("engine should be fail-stopped after a broken round")
	}
}

// tinyTrainerCfg builds the configuration of a small dense-net trainer,
// shared by the single-process bit-identity sweeps (workers trainers in
// one process, firstWorker 0) and the per-process node deployments of
// the TCP tests (Workers=1 trainers whose firstWorker is the rank) — one
// builder, so the two setups cannot drift apart.
func tinyTrainerCfg(workers, firstWorker int, comp string, delta float64, seed int64, ex dist.GradientExchange) dist.TrainerConfig {
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewSequential(
		nn.NewDense("d1", 12, 10, rng),
		&nn.ReLU{},
		nn.NewDense("d2", 10, 4, rng),
	)
	var factory func() compress.Compressor
	if comp != "" {
		factory = func() compress.Compressor { return registryCompressor(comp, seed) }
	}
	return dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: firstWorker,
		Model:       model,
		Loss:        &nn.SoftmaxCrossEntropy{},
		Opt:         &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			x := nn.NewTensor(8, 12)
			targets := make([]int, 8)
			for i := range targets {
				targets[i] = rng.Intn(4)
				for j := 0; j < 12; j++ {
					x.Data[i*12+j] = rng.NormFloat64() + float64(targets[i])
				}
			}
			return x, targets
		},
		NewCompressor: factory,
		Delta:         delta,
		EC:            comp != "",
		Seed:          seed,
		Exchange:      ex,
	}
}

// tinyTrainer builds a small dense-net trainer so the bit-identity sweep
// over every registry compressor stays fast.
func tinyTrainer(t *testing.T, workers int, comp string, delta float64, seed int64, ex dist.GradientExchange) *dist.Trainer {
	t.Helper()
	tr, err := dist.NewTrainer(tinyTrainerCfg(workers, 0, comp, delta, seed, ex))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainerOverChannelTransportBitIdentical is the tentpole acceptance
// check: training over the channel transport must yield bit-identical
// per-iteration losses (and final weights) to the in-process Trainer for
// a fixed seed, across every compressor in the registry, on both the
// all-gather and parameter-server collectives.
func TestTrainerOverChannelTransportBitIdentical(t *testing.T) {
	const workers, iters = 4, 5
	for _, comp := range registryNames {
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			t.Run(fmt.Sprintf("%s-%v", comp, coll), func(t *testing.T) {
				e, err := New(Config{Workers: workers, Collective: coll, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				wantLoss, wantW := trainTiny(t, workers, iters, comp, nil, nil)
				gotLoss, gotW := trainTiny(t, workers, iters, comp, nil, e)
				requireBitIdentical(t, "loss", gotLoss, wantLoss)
				requireBitIdentical(t, "weight", gotW, wantW)
			})
		}
	}
}

// trainTiny runs the tiny trainer (delta 0.1, seed 42) for iters steps
// over ex — nil: the in-process reducer — with error feedback pre-rounding
// to ecWire when that is set, and returns its losses and final weights.
func trainTiny(t *testing.T, workers, iters int, comp string, ecWire *encoding.Format, ex dist.GradientExchange) (losses, weights []float64) {
	t.Helper()
	cfg := tinyTrainerCfg(workers, 0, comp, 0.1, 42, ex)
	cfg.ECWire = ecWire
	tr, err := dist.NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses, _, err = tr.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return losses, nn.FlattenWeights(tr.Params(), nil)
}

// requireBitIdentical fails unless got equals want element for element.
func requireBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d %s values, want %d", len(got), what, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestTrainerDenseRingConverges covers the dense cluster path: ring
// all-reduce reassociates float addition, so losses track the in-process
// run closely but not bitwise.
func TestTrainerDenseRingConverges(t *testing.T) {
	const workers, iters = 4, 8
	e, err := New(Config{Workers: workers, Collective: netsim.CollectiveRing, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref := tinyTrainer(t, workers, "", 0, 7, nil)
	wantLoss, _, err := ref.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	tr := tinyTrainer(t, workers, "", 0, 7, e)
	gotLoss, _, err := tr.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLoss {
		if math.Abs(gotLoss[i]-wantLoss[i]) > 1e-9 {
			t.Fatalf("loss[%d] = %v, want %v within ring tolerance", i, gotLoss[i], wantLoss[i])
		}
	}
}

// zeroHeavyInputs builds sparse contributions salted with the values a
// sparse reduce can get wrong: -0 (alone at an index it must land as +0),
// +/-1.5 (exactly cancelling where workers overlap) and a denormal-scale
// 1e-300 that must survive.
func zeroHeavyInputs(workers, dim int, seed int64) []dist.ExchangeInput {
	rng := rand.New(rand.NewSource(seed))
	salt := []float64{math.Copysign(0, -1), 1.5, -1.5, 1e-300}
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		s := &tensor.Sparse{Dim: dim}
		// Pinned cases: index 0 cancels between workers 0 and 1, index 1
		// is a lone -0, index 2 a lone 1e-300; the rest is random.
		switch w {
		case 0:
			s.Append(0, 1.5)
			s.Append(1, salt[0])
			s.Append(2, 1e-300)
		case 1:
			s.Append(0, -1.5)
		}
		for i := 3; i < dim; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				s.Append(int32(i), salt[r])
			case r < 6:
				s.Append(int32(i), rng.NormFloat64())
			}
		}
		ins[w] = dist.ExchangeInput{Worker: w, Sparse: s}
	}
	return ins
}

// TestSparseReduceMatchesInProcessOnZeros holds the O(k*N) merged reduce
// of the all-gather and of the parameter server bit-equal to dist.InProcess on inputs full of
// signed zeros and cancelling pairs, with and without the per-rank
// aggregates Verify adds. Under PS the reply must carry exactly the
// non-zero support of the mean: cancelled sums and lone -0s are absent
// from it, 1e-300 is not.
func TestSparseReduceMatchesInProcessOnZeros(t *testing.T) {
	const dim = 61
	for _, workers := range []int{1, 2, 3, 8} {
		ins := zeroHeavyInputs(workers, dim, int64(100+workers))
		want := make([]float64, dim)
		if err := (dist.InProcess{}).Exchange(0, ins, want); err != nil {
			t.Fatal(err)
		}
		support, pushed := 0, 0
		for _, v := range want {
			if v != 0 {
				support++
			}
		}
		for _, in := range ins {
			pushed += encoding.Pairs64Size(dim, in.Sparse.NNZ())
		}
		for _, cfg := range []Config{
			{Collective: netsim.CollectiveAllGather},
			{Collective: netsim.CollectivePS},
		} {
			for _, verify := range []bool{false, true} {
				cfg.Workers, cfg.Verify = workers, verify
				got, e := engineExchange(t, cfg, ins, dim)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d %v verify=%v: element %d = %v (%#x), in-process %v (%#x)",
							workers, cfg.Collective, verify, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
				if cfg.Collective == netsim.CollectivePS {
					_, bytes := e.Transport().Totals()
					if reply := (bytes - pushed) / workers; reply != encoding.Pairs64Size(dim, support) {
						t.Fatalf("workers=%d: PS reply is %d bytes, want the %d-element non-zero support (%d bytes)",
							workers, reply, support, encoding.Pairs64Size(dim, support))
					}
				}
				e.Close()
			}
		}
	}
}

// TestReduceBufsKeepHighWaterMark: nothing releases a reducer's storage.
// A SIDCo selection is bounded at (1+eps)k from the first step, so the
// high-water mark is the steady state: after 100 rounds that sweep the
// band every ten, the capacities are those after the first 10.
func TestReduceBufsKeepHighWaterMark(t *testing.T) {
	const k = 1000
	var b reduceBufs
	var after10, after100 [3]int
	for i := 0; i < 100; i++ {
		parts := b.grow(2)
		for p := range parts {
			parts[p].Reset(4 * k)
			for j := 0; j < k*8/10+(9-i%10)*k*4/90; j++ { // 1.2k down to 0.8k
				parts[p].Append(int32(2*j+p), 1)
			}
		}
		tensor.MeanSparseInto(&b.mean, parts)
		after100 = [3]int{cap(b.parts[0].Idx), cap(b.parts[1].Vals), cap(b.mean.Idx)}
		if i == 9 {
			after10 = after100
		}
	}
	if after100 != after10 || after10[2] < 2*k {
		t.Fatalf("capacities %v after 100 in-band rounds, %v after 10", after100, after10)
	}
}

// registryNames mirrors harness.CompressorNames; the cluster tests keep
// their own copy because harness depends on this package (the loopback
// study), and a test-only import back into harness would be a cycle.
var registryNames = []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}

// registryCompressor mirrors harness.NewCompressor for the names above.
func registryCompressor(name string, seed int64) compress.Compressor {
	switch name {
	case "topk":
		return compress.NewTopK()
	case "dgc":
		return compress.NewDGC(seed)
	case "redsync":
		return compress.NewRedSync()
	case "gaussiank":
		return compress.NewGaussianKSGD()
	case "sidco-e":
		return core.NewE()
	case "sidco-gp":
		return core.NewGammaGP()
	case "sidco-p":
		return core.NewGP()
	default:
		panic("unknown registry compressor " + name)
	}
}
