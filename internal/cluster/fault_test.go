package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestFaultTransportPlan pins the deterministic failure semantics of
// FaultTransport: a dead node's own operations fail with the ErrClosed
// class, its inbound links blackhole, peers drain pre-death payloads
// before seeing ErrPeerLost, and a killed link breaks after exactly its
// send budget.
func TestFaultTransportPlan(t *testing.T) {
	t.Run("kill-rank", func(t *testing.T) {
		inner, err := NewChanTransport(3)
		if err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		ft := NewFaultTransport(inner, FaultPlan{KillRank: map[int]int64{1: 2}})

		// Before the fatal step everything passes through.
		ft.SetStep(1)
		if err := ft.Send(1, 0, []byte{7}); err != nil {
			t.Fatalf("pre-death send: %v", err)
		}
		ft.SetStep(2)
		// The dead node's own ops are the unrecoverable local class.
		if err := ft.Send(1, 0, []byte{8}); !errors.Is(err, ErrClosed) {
			t.Fatalf("dead sender error = %v, want ErrClosed", err)
		}
		if _, err := ft.Recv(1, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("dead receiver error = %v, want ErrClosed", err)
		}
		// Peers drain what the node sent before dying, then see peer loss.
		p, err := ft.Recv(0, 1)
		if err != nil || len(p) != 1 || p[0] != 7 {
			t.Fatalf("pre-death payload: %v, %v", p, err)
		}
		if _, err := ft.Recv(0, 1); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("post-drain recv = %v, want ErrPeerLost", err)
		}
		if !Recoverable(fmt.Errorf("wrap: %w", ErrPeerLost)) {
			t.Fatal("ErrPeerLost must classify as recoverable")
		}
		// Sends into the dead node blackhole rather than erroring: a
		// crashed peer's kernel would have accepted the bytes too.
		if err := ft.Send(0, 1, []byte{9}); err != nil {
			t.Fatalf("blackhole send: %v", err)
		}
	})
	t.Run("kill-link", func(t *testing.T) {
		inner, err := NewChanTransport(2)
		if err != nil {
			t.Fatal(err)
		}
		defer inner.Close()
		ft := NewFaultTransport(inner, FaultPlan{KillLink: map[Link]int{{0, 1}: 2}})
		for i := 0; i < 2; i++ {
			if err := ft.Send(0, 1, []byte{byte(i)}); err != nil {
				t.Fatalf("send %d within budget: %v", i, err)
			}
		}
		if err := ft.Send(0, 1, []byte{2}); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("over-budget send = %v, want ErrPeerLost", err)
		}
		for i := 0; i < 2; i++ {
			if p, err := ft.Recv(1, 0); err != nil || p[0] != byte(i) {
				t.Fatalf("draining payload %d: %v, %v", i, p, err)
			}
		}
		if _, err := ft.Recv(1, 0); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("post-drain recv = %v, want ErrPeerLost", err)
		}
		// The reverse direction is untouched.
		if err := ft.Send(1, 0, []byte{42}); err != nil {
			t.Fatalf("reverse link send: %v", err)
		}
	})
}

// TestMemberFrameCodec pins the membership wire format and that no
// legitimate payload shape parses as a frame.
func TestMemberFrameCodec(t *testing.T) {
	f := memberFrame{epoch: 3, round: 2, mask: 0b1011}
	got, ok := parseMemberFrame(f.encode())
	if !ok || got != f {
		t.Fatalf("round trip: %+v ok=%v, want %+v", got, ok, f)
	}
	for _, p := range [][]byte{nil, {1}, make([]byte, 8), make([]byte, memberFrameLen), make([]byte, 64)} {
		if _, ok := parseMemberFrame(p); ok {
			t.Fatalf("%d zero bytes parsed as a member frame", len(p))
		}
	}
}

// TestMembershipAgreesOnSurvivors runs the renegotiation protocol at
// three live nodes of a four-node group: the silent node is dropped and
// every survivor agrees on the same view, with stale aborted-step
// payloads on the links drained rather than misparsed.
func TestMembershipAgreesOnSurvivors(t *testing.T) {
	tp, err := NewChanTransport(4)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	// Stale gradient bytes from the aborted step sit ahead of the
	// protocol frames on some links; the drain must skip them.
	if err := tp.Send(0, 1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tp.Send(2, 0, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2, 3}
	type res struct {
		self int
		view []int
		err  error
	}
	out := make(chan res, 3)
	for _, self := range []int{0, 1, 2} { // node 3 is dead: never speaks
		go func(self int) {
			var ng negotiator
			view, err := ng.renegotiate(tp, self, members, 1, 200*time.Millisecond)
			out <- res{self, view, err}
		}(self)
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-out:
			if r.err != nil {
				t.Fatalf("node %d: %v", r.self, r.err)
			}
			if len(r.view) != 3 || r.view[0] != 0 || r.view[1] != 1 || r.view[2] != 2 {
				t.Fatalf("node %d agreed on %v, want [0 1 2]", r.self, r.view)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("renegotiation hung")
		}
	}
}

// faultEnv builds one dead-peer scenario: per-rank transports (a shared
// fault-wrapped channel transport, or one real TCP transport per rank),
// a victim rank, and a kill switch that makes the victim disappear
// between steps.
type faultEnv struct {
	name  string
	build func(t *testing.T, nodes, victim int) (tps []Transport, kill func())
}

var faultEnvs = []faultEnv{
	{"chan-fault", func(t *testing.T, nodes, victim int) ([]Transport, func()) {
		inner, err := NewChanTransport(nodes)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inner.Close() })
		// Step-1 kill, one wrapper per rank: each node judges the victim
		// dead by its OWN step clock (as separate processes would), so a
		// rank that runs ahead — the PS server starts round 1 the moment
		// round 0 ends — cannot kill the victim out from under a peer
		// still finishing step 0.
		tps := make([]Transport, nodes)
		for i := range tps {
			tps[i] = NewFaultTransport(inner, FaultPlan{KillRank: map[int]int64{victim: 1}})
		}
		return tps, func() {}
	}},
	{"tcp", func(t *testing.T, nodes, victim int) ([]Transport, func()) {
		addrs, err := FreeLoopbackAddrs(nodes)
		if err != nil {
			t.Fatal(err)
		}
		tps := make([]Transport, nodes)
		for i := range tps {
			tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{i}, DialTimeout: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tp.Close() })
			tps[i] = tp
		}
		return tps, func() { tps[victim].Close() }
	}},
}

// killRankEngine is the engine environment of the kill-rank table: the
// victim dies between step 0 and step 1 of an Engine with a StepTimeout,
// Exchange must surface a classified error, and Close must leave no
// goroutine behind.
func killRankEngine(t *testing.T, workers, dim, victim int, coll netsim.Collective) {
	before := runtime.NumGoroutine()
	inner, err := NewChanTransport(NodeCount(workers, coll))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Workers: workers, Collective: coll, StepTimeout: 500 * time.Millisecond,
		Transport: NewFaultTransport(inner, FaultPlan{KillRank: map[int]int64{victim: 1}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		ins[w] = dist.ExchangeInput{Worker: w, Dense: denseGrad(w, dim)}
	}
	agg := make([]float64, dim)
	if err := e.Exchange(0, ins, agg); err != nil {
		t.Fatalf("healthy step: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Exchange(1, ins, agg) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("step 1 finished despite the dead rank")
		} else if !Recoverable(err) && !errors.Is(err, ErrClosed) {
			t.Errorf("error not classified: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Exchange hung past the step timeout")
	}
	e.Close()
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(wait) {
			t.Errorf("%d goroutines outlive Close, %d ran before the engine was built", runtime.NumGoroutine(), before)
			break
		}
	}
}

// TestEngineIdleServerKeepsDeadline: the engine-hosted parameter server
// takes its receive deadline when a round starts, so a caller that
// pauses between exchanges for longer than StepTimeout does not time the
// server out.
func TestEngineIdleServerKeepsDeadline(t *testing.T) {
	const workers, dim = 2, 32
	e, err := New(Config{Workers: workers, Collective: netsim.CollectivePS, StepTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ins := randomInputs(t, workers, dim, 0.2, 7)
	agg := make([]float64, dim)
	for step := 0; step < 2; step++ {
		if err := e.Exchange(step, ins, agg); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestKillRankSurfacesClassifiedError is the fail-stop regression test:
// with retries disabled, killing one rank between steps must surface a
// classified error — Recoverable (peer lost / timeout) or the ErrClosed
// shutdown class — at every surviving rank within the step timeout, for
// every collective schedule, over both the deterministic fault transport
// and real TCP sockets, and at Engine.Exchange when the deployment is an
// Engine. No surviving goroutine may hang.
func TestKillRankSurfacesClassifiedError(t *testing.T) {
	const workers, dim = 3, 32
	cases := []struct {
		name string
		coll netsim.Collective
	}{
		{"ring", netsim.CollectiveRing},
		{"allgather", netsim.CollectiveAllGather},
		{"ps", netsim.CollectivePS},
	}
	for _, tc := range cases {
		t.Run("engine/"+tc.name, func(t *testing.T) {
			killRankEngine(t, workers, dim, 1, tc.coll)
		})
	}
	for _, env := range faultEnvs {
		for _, tc := range cases {
			t.Run(env.name+"/"+tc.name, func(t *testing.T) {
				nodes := NodeCount(workers, tc.coll)
				victim := 1 // always a worker; the PS server must survive
				tps, kill := env.build(t, nodes, victim)

				type outcome struct {
					rank int
					err  error
				}
				results := make(chan outcome, nodes)
				step := func(nd *Node, rank, it int) error {
					in := []dist.ExchangeInput{{Worker: rank, Dense: denseGrad(rank, dim)}}
					agg := make([]float64, dim)
					if err := nd.Exchange(it, in, agg); err != nil {
						return err
					}
					// The per-step barrier of a real deployment (loss
					// reduction) keeps shared-buffer transports safe.
					_, err := nd.MeanScalar(float64(rank))
					return err
				}
				barrier := make(chan struct{})
				for rank := 0; rank < nodes; rank++ {
					go func(rank int) {
						nd, err := NewNode(NodeConfig{
							Workers: workers, Rank: rank, Collective: tc.coll,
							Transport: tps[rank], StepTimeout: 500 * time.Millisecond,
						})
						if err != nil {
							results <- outcome{rank, fmt.Errorf("build: %v", err)}
							return
						}
						if rank == workers && tc.coll == netsim.CollectivePS {
							results <- outcome{rank, nd.Serve(0, 2)}
							return
						}
						if err := step(nd, rank, 0); err != nil {
							results <- outcome{rank, fmt.Errorf("healthy step: %v", err)}
							return
						}
						<-barrier
						if rank == victim {
							results <- outcome{rank, nil} // dead: never runs step 1
							return
						}
						results <- outcome{rank, step(nd, rank, 1)}
					}(rank)
				}
				// Give every rank time to finish the healthy step, then kill.
				time.Sleep(300 * time.Millisecond)
				kill()
				close(barrier)
				for i := 0; i < nodes; i++ {
					select {
					case r := <-results:
						if r.rank == victim {
							continue
						}
						if r.err == nil {
							t.Errorf("rank %d finished step 1 despite the dead peer", r.rank)
							continue
						}
						if !Recoverable(r.err) && !errors.Is(r.err, ErrClosed) {
							t.Errorf("rank %d error not classified: %v", r.rank, r.err)
						}
					case <-time.After(30 * time.Second):
						t.Fatal("a surviving rank hung past the step timeout")
					}
				}
			})
		}
	}
}

// denseGrad is a rank-distinct gradient so aggregation results identify
// exactly who contributed.
func denseGrad(rank, dim int) []float64 {
	g := make([]float64, dim)
	for i := range g {
		g[i] = float64(rank+1) + float64(i)/16
	}
	return g
}

// sparseGrad is denseGrad's selection: a rank-distinct quarter of the
// support (every element with i%4 == rank%4, plus element 0 from everyone)
// so the survivors' merged mean identifies who contributed, where they
// overlap and where they do not.
func sparseGrad(rank, dim int) *tensor.Sparse {
	g := denseGrad(rank, dim)
	s := &tensor.Sparse{Dim: dim}
	for i := range g {
		if i == 0 || i%4 == rank%4 {
			s.Append(int32(i), g[i])
		}
	}
	return s
}

// TestElasticRecoverySurvivorsComplete is the elastic-membership
// acceptance test: with retries enabled, the survivors of a mid-run
// death renegotiate, exclude the dead rank from the next schedule, and
// complete the step with the aggregate rescaled to the survivor count —
// over both the fault transport and real TCP. The all-gather's dense
// aggregate (Exchange) and merged sparse mean (ExchangeSparse) must be
// the survivors' mean in member order; the ring's (Exchange) must be
// RingOrder's over the survivors' inputs in member order, on gradients
// whose worker-order mean differs from it. The fault path reports itself:
// every survivor counts one recovery and one lost peer on its telemetry.
func TestElasticRecoverySurvivorsComplete(t *testing.T) {
	const workers, dim = 4, 32
	const victim = 2
	survivors := []int{0, 1, 3}
	for _, env := range faultEnvs {
		run := func(t *testing.T, mode string) {
			sparse, coll, grad := mode == "sparse", netsim.CollectiveAllGather, denseGrad
			if mode == "ring" {
				// Random values, whose sums round differently in different
				// orders.
				ring := randomInputs(t, workers, dim, 0, 1)
				coll, grad = netsim.CollectiveRing, func(rank, _ int) []float64 { return ring[rank].Dense }
			}
			tps, kill := env.build(t, workers, victim)
			counters := telemetry.NewAggregator()
			tel := telemetry.New(counters)
			type outcome struct {
				rank   int
				agg    []float64
				mean   tensor.Sparse
				scalar float64
				err    error
			}
			results := make(chan outcome, workers)
			barrier := make(chan struct{})
			for rank := 0; rank < workers; rank++ {
				go func(rank int) {
					nd, err := NewNode(NodeConfig{
						Workers: workers, Rank: rank, Collective: coll,
						Transport: tps[rank], StepTimeout: 400 * time.Millisecond, MaxStepRetries: 2,
						Telemetry: tel,
					})
					if err != nil {
						results <- outcome{rank: rank, err: err}
						return
					}
					run := func(it int) (out outcome) {
						out.rank = rank
						if sparse {
							in := []dist.ExchangeInput{{Worker: rank, Sparse: sparseGrad(rank, dim)}}
							ran, err := nd.ExchangeSparse(it, in, &out.mean)
							if err == nil && !ran {
								err = fmt.Errorf("ExchangeSparse declined a sparse all-gather round")
							}
							if out.err = err; err != nil {
								return out
							}
						} else {
							in := []dist.ExchangeInput{{Worker: rank, Dense: grad(rank, dim)}}
							out.agg = make([]float64, dim)
							if out.err = nd.Exchange(it, in, out.agg); out.err != nil {
								return out
							}
						}
						out.scalar, out.err = nd.MeanScalar(float64(rank))
						return out
					}
					if out := run(0); out.err != nil {
						results <- outcome{rank: rank, err: fmt.Errorf("healthy step: %v", out.err)}
						return
					}
					<-barrier
					if rank == victim {
						results <- outcome{rank: rank}
						return
					}
					results <- run(1)
				}(rank)
			}
			time.Sleep(300 * time.Millisecond)
			kill()
			close(barrier)

			// Expected survivor aggregate: the survivors' contributions in
			// member order, reduced in the collective's order and rescaled
			// by the survivor count, exactly as the group schedule
			// computes it.
			ins := make([]dist.ExchangeInput, len(survivors))
			parts := make([]tensor.Sparse, len(survivors))
			for p, r := range survivors {
				ins[p] = dist.ExchangeInput{Worker: p, Dense: grad(r, dim)}
				parts[p] = *sparseGrad(r, dim)
			}
			wantAgg := make([]float64, dim)
			if err := (dist.InProcess{}).Exchange(0, ins, wantAgg); err != nil {
				t.Fatal(err)
			}
			if coll == netsim.CollectiveRing {
				inProc := slices.Clone(wantAgg)
				if err := (RingOrder{}).Exchange(0, ins, wantAgg); err != nil {
					t.Fatal(err)
				}
				if slices.Equal(inProc, wantAgg) {
					t.Fatal("worker order and ring order agree on every element: the row cannot tell them apart")
				}
			}
			var wantMean tensor.Sparse
			tensor.MeanSparseInto(&wantMean, parts)
			wantScalar := (0.0 + 1.0 + 3.0) * (1 / float64(3))

			for i := 0; i < workers; i++ {
				select {
				case r := <-results:
					if r.rank == victim {
						continue
					}
					if r.err != nil {
						t.Fatalf("survivor %d failed step 1: %v", r.rank, r.err)
					}
					if sparse {
						if err := sameSparse(r.rank, &r.mean, &wantMean); err != nil {
							t.Fatalf("mean over survivors: %v", err)
						}
					}
					for j := range r.agg {
						if r.agg[j] != wantAgg[j] {
							t.Fatalf("survivor %d agg[%d] = %v, want %v (mean over survivors)", r.rank, j, r.agg[j], wantAgg[j])
						}
					}
					if r.scalar != wantScalar {
						t.Fatalf("survivor %d scalar = %v, want %v", r.rank, r.scalar, wantScalar)
					}
					_, _, nodes := counters.Snapshot()
					if nc := nodes[int32(r.rank)]; nc[telemetry.CounterRecoveries] != 1 || nc[telemetry.CounterPeersLost] != 1 {
						t.Fatalf("survivor %d counted %d recoveries and %d lost peers, want 1 and 1", r.rank, nc[telemetry.CounterRecoveries], nc[telemetry.CounterPeersLost])
					}
				case <-time.After(30 * time.Second):
					t.Fatal("a survivor hung during elastic recovery")
				}
			}
		}
		t.Run(env.name, func(t *testing.T) {
			for _, mode := range []string{"dense", "sparse", "ring"} {
				t.Run(mode, func(t *testing.T) { run(t, mode) })
			}
		})
	}
}
