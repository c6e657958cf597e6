package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// exchangeOnly and stepFlatOnly are what a decorator written before the
// optional interfaces existed looks like — the step benchmark's timing
// wrappers, a user's logging wrapper: they forward Exchange, or the
// Optimizer methods, and nothing else, which hides ExchangeSparse and
// ExchangeApply, or StepSparse, from dist.Trainer and forces its dense
// route.
type exchangeOnly struct{ inner dist.GradientExchange }

func (x exchangeOnly) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	return x.inner.Exchange(step, ins, agg)
}

type stepFlatOnly struct{ inner nn.Optimizer }

func (o stepFlatOnly) StepFlat(params []*nn.Param, flat []float64) { o.inner.StepFlat(params, flat) }
func (o stepFlatOnly) StepSpan(params []*nn.Param, off int, grad []float64) {
	o.inner.StepSpan(params, off, grad)
}

// routes are the trainer configurations TestSparseRouteMatchesDenseRoute
// runs: the sparse route as built and the dense route forced from either
// side, whose results must coincide, and Momentum, which offers no sparse
// form and takes the dense route to results of its own (own).
var routes = []struct {
	name   string
	sparse bool
	own    bool
	mutate func(*dist.TrainerConfig)
}{
	{"sparse", true, false, func(*dist.TrainerConfig) {}},
	{"dense-exchange", false, false, func(c *dist.TrainerConfig) {
		if c.Exchange == nil {
			c.Exchange = dist.InProcess{}
		}
		c.Exchange = exchangeOnly{c.Exchange}
	}},
	{"dense-optimizer", false, false, func(c *dist.TrainerConfig) { c.Opt = stepFlatOnly{c.Opt} }},
	{"momentum", false, true, func(c *dist.TrainerConfig) { c.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9} }},
}

// appliedPerStep traces cfg's trainer into a fresh aggregator and returns
// the function reading the route it took off its own telemetry: the
// elements handed to the optimizer per step, N*k-hat on the sparse route
// and d on the dense one.
func appliedPerStep(cfg *dist.TrainerConfig) func() float64 {
	agg := telemetry.NewAggregator()
	cfg.Telemetry = telemetry.New(agg)
	node := cfg.FirstWorker
	return func() float64 {
		_, _, nodes := agg.Snapshot()
		nc := nodes[int32(node)]
		return float64(nc[telemetry.CounterApplyElems]) / float64(nc[telemetry.CounterSteps])
	}
}

// requireRoute fails unless the per-step applied element count says the
// trainer took the expected route: the union of a few selections on the
// sparse one, every element on the dense one.
func requireRoute(t *testing.T, sparse bool, applied float64, dim int) {
	t.Helper()
	if sparse && (applied <= 0 || applied >= float64(dim)) {
		t.Fatalf("sparse route applied %.1f elements/step of d = %d, want the merged selections only", applied, dim)
	}
	if !sparse && applied != float64(dim) {
		t.Fatalf("dense route applied %.1f elements/step, want d = %d", applied, dim)
	}
}

// TestSparseRouteMatchesDenseRoute: handing the merged sparse mean to the
// optimizer is the same program as scattering it into a dense aggregate.
// For every registry compressor, the in-process reducer, an Engine over
// channels (Verify on: every rank's merged mean compared) and per-rank
// Nodes over TCP, on all-gather and the parameter server, train to the
// same losses and the same final weights, bit for bit, whether the trainer
// takes the sparse route or has it hidden by a wrapper that forwards only
// Exchange or only StepFlat — which is also what the step benchmark's
// decorated world does. Momentum takes the dense route everywhere and
// trains the same on each runner as in process. Each run's telemetry must
// show the route it took.
func TestSparseRouteMatchesDenseRoute(t *testing.T) {
	const workers, iters, delta, seed = 3, 4, 0.1, 42
	type result struct{ losses, weights []float64 }
	for _, comp := range registryNames {
		var dim int
		inproc := func(t *testing.T, sparse bool, mutate func(*dist.TrainerConfig)) result {
			cfg := tinyTrainerCfg(workers, 0, comp, delta, seed, nil)
			mutate(&cfg)
			applied := appliedPerStep(&cfg)
			tr, err := dist.NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			losses, _, err := tr.Run(iters)
			if err != nil {
				t.Fatal(err)
			}
			dim = tr.Dim()
			requireRoute(t, sparse, applied(), dim)
			return result{losses, nn.FlattenWeights(tr.Params(), nil)}
		}
		// want[i] is what route i must train: the sparse route's results,
		// or its own in process.
		want := make([]result, len(routes))
		for i, rt := range routes {
			want[i] = want[0]
			if i == 0 || rt.own {
				want[i] = inproc(t, rt.sparse, rt.mutate)
			}
		}
		t.Run(comp+"/inprocess", func(t *testing.T) {
			for _, rt := range routes[1:] {
				if rt.own {
					continue
				}
				got := inproc(t, rt.sparse, rt.mutate)
				requireBitIdentical(t, rt.name+" loss", got.losses, want[0].losses)
				requireBitIdentical(t, rt.name+" weight", got.weights, want[0].weights)
			}
		})
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			t.Run(fmt.Sprintf("%s/engine-%v", comp, coll), func(t *testing.T) {
				for i, rt := range routes {
					e, err := New(Config{Workers: workers, Collective: coll, Verify: true})
					if err != nil {
						t.Fatal(err)
					}
					cfg := tinyTrainerCfg(workers, 0, comp, delta, seed, e)
					rt.mutate(&cfg)
					applied := appliedPerStep(&cfg)
					tr, err := dist.NewTrainer(cfg)
					if err != nil {
						t.Fatal(err)
					}
					losses, _, err := tr.Run(iters)
					e.Close()
					if err != nil {
						t.Fatal(err)
					}
					requireRoute(t, rt.sparse, applied(), dim)
					requireBitIdentical(t, rt.name+" loss", losses, want[i].losses)
					requireBitIdentical(t, rt.name+" weight", nn.FlattenWeights(tr.Params(), nil), want[i].weights)
				}
			})
			t.Run(fmt.Sprintf("%s/nodes-tcp-%v", comp, coll), func(t *testing.T) {
				for i, rt := range routes {
					applied := make([]func() float64, workers)
					got := runTCPDeployment(t, Config{Workers: workers, Collective: coll}, iters, comp, delta, seed, rt.mutate, func(c *dist.TrainerConfig) {
						applied[c.FirstWorker] = appliedPerStep(c)
					})
					for _, res := range got {
						if res.rank >= workers {
							continue
						}
						requireRoute(t, rt.sparse, applied[res.rank](), dim)
						requireBitIdentical(t, fmt.Sprintf("%s rank %d loss", rt.name, res.rank), res.losses, want[i].losses)
						requireBitIdentical(t, fmt.Sprintf("%s rank %d weight", rt.name, res.rank), res.weights, want[i].weights)
					}
				}
			})
		}
	}
}

// stripOdd makes one live trainer's rounds alternate: on odd steps it hands
// the engine the workers' selections densified and without their sparse
// form — a round ExchangeSparse must decline — and on even steps the inputs
// as they are.
type stripOdd struct{ inner *Engine }

func (s stripOdd) strip(step int, ins []dist.ExchangeInput) []dist.ExchangeInput {
	if step%2 == 0 {
		return ins
	}
	dense := make([]dist.ExchangeInput, len(ins))
	for i, in := range ins {
		dense[i] = dist.ExchangeInput{Worker: in.Worker, Dense: in.Sparse.Dense()}
	}
	return dense
}

func (s stripOdd) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	return s.inner.Exchange(step, s.strip(step, ins), agg)
}

func (s stripOdd) ExchangeSparse(step int, ins []dist.ExchangeInput, mean *tensor.Sparse) (bool, error) {
	return s.inner.ExchangeSparse(step, s.strip(step, ins), mean)
}

// TestDenseRoundsKeepParentLosses: whatever cannot be sparse after the
// selection stays on the dense route and computes what it computed before
// the sparse route existed. The losses (and the sum of the final weights)
// of the tiny sidco-e trainer, as bit patterns recorded at the commit
// before this route: a ring all-reduce forced onto sparse inputs, an
// all-gather engine whose rounds alternate sparse, dense, sparse on one
// live trainer, and SGD behind a wrapper that hides StepSparse; Momentum's
// were recorded with its Nesterov update at the commit before the classical
// one was deleted. The per-step applied element count shows the route each
// step took.
func TestDenseRoundsKeepParentLosses(t *testing.T) {
	const workers, iters = 4, 6
	plain := []uint64{0x4003618ef0445890, 0x4009c735dd963ea3, 0x4002d3a956995daf, 0x3ffd7414eb65f9f5, 0x3ffbd4cde8c7a8e6, 0x3ff9675eb62f0a68, 0xbff6af7a34543208}
	engine := func(coll netsim.Collective) *Engine {
		e, err := New(Config{Workers: workers, Collective: coll, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	cases := []struct {
		name   string
		mutate func(*dist.TrainerConfig)
		sparse func(step int) bool
		want   []uint64 // iters losses, then the weight sum
	}{
		{"sparse route", func(*dist.TrainerConfig) {}, func(int) bool { return true }, plain},
		{"ring", func(c *dist.TrainerConfig) { c.Exchange = engine(netsim.CollectiveRing) }, func(int) bool { return false }, plain},
		{"alternating", func(c *dist.TrainerConfig) { c.Exchange = stripOdd{engine(netsim.CollectiveAllGather)} },
			func(step int) bool { return step%2 == 0 }, plain},
		{"optimizer without the sparse form", func(c *dist.TrainerConfig) { c.Opt = stepFlatOnly{c.Opt} }, func(int) bool { return false }, plain},
		{"momentum", func(c *dist.TrainerConfig) { c.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9} }, func(int) bool { return false },
			[]uint64{0x4003618ef0445890, 0x40091b4113cde482, 0x3ffba7637e1f3f1c, 0x3ff65bb82cbed836, 0x3ffba7bf60868cdf, 0x3ff7604bd6e42b98, 0xc0181de3fca5e564}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyTrainerCfg(workers, 0, "sidco-e", 0.1, 42, nil)
			tc.mutate(&cfg)
			agg := telemetry.NewAggregator()
			cfg.Telemetry = telemetry.New(agg)
			tr, err := dist.NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applied := int64(0)
			for step := 0; step < iters; step++ {
				loss, err := tr.Step()
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Float64bits(loss); got != tc.want[step] {
					t.Errorf("loss[%d] = %v (%#x), the parent trained %#x", step, loss, got, tc.want[step])
				}
				_, _, nodes := agg.Snapshot()
				total := nodes[0][telemetry.CounterApplyElems]
				requireRoute(t, tc.sparse(step), float64(total-applied), tr.Dim())
				applied = total
			}
			sum := 0.0
			for _, w := range nn.FlattenWeights(tr.Params(), nil) {
				sum += w
			}
			if got := math.Float64bits(sum); got != tc.want[iters] {
				t.Errorf("weight sum = %v (%#x), the parent trained %#x", sum, got, tc.want[iters])
			}
		})
	}
}

// applyRecorder forwards an optimizer and records how the trainer handed it
// each step's mean: the StepFlat calls, the StepSpan calls, and per element
// how many StepSpan calls covered it.
type applyRecorder struct {
	nn.Optimizer
	flats, spans int
	hits         []int
}

func (r *applyRecorder) StepFlat(params []*nn.Param, flat []float64) {
	r.flats++
	r.Optimizer.StepFlat(params, flat)
}

func (r *applyRecorder) StepSpan(params []*nn.Param, off int, grad []float64) {
	r.spans++
	for i := range grad {
		r.hits[off+i]++
	}
	r.Optimizer.StepSpan(params, off, grad)
}

// requireStep fails unless the step just taken applied the mean the way
// asked, and clears the record for the next: chunks > 0 wants that many
// StepSpan calls covering every element exactly once and no StepFlat, 0
// wants one StepFlat and no span.
func (r *applyRecorder) requireStep(t *testing.T, what string, chunks int) {
	t.Helper()
	if chunks == 0 && (r.flats != 1 || r.spans != 0) {
		t.Fatalf("%s: %d StepFlat and %d StepSpan calls, want the gathered mean applied once", what, r.flats, r.spans)
	}
	if chunks > 0 && (r.flats != 0 || r.spans != chunks) {
		t.Fatalf("%s: %d StepFlat and %d StepSpan calls, want %d spans", what, r.flats, r.spans, chunks)
	}
	for i, h := range r.hits {
		if chunks > 0 && h != 1 {
			t.Fatalf("%s: element %d applied %d times, want once", what, i, h)
		}
	}
	r.reset()
}

// reset clears the record.
func (r *applyRecorder) reset() {
	clear(r.hits)
	r.flats, r.spans = 0, 0
}

// ringRank is one rank of a dense ring deployment run in one process: its
// Node, the Workers=1 trainer over it, and that trainer's recorded applies.
type ringRank struct {
	node *Node
	tr   *dist.Trainer
	rec  *applyRecorder
}

// ringDeployment builds one ring rank per transport in tps (ranks may share
// one), each node configured as base says beyond the deployment's shape,
// each trainer the tiny dense one (no compressor) with mutate applied and
// its optimizer recorded.
func ringDeployment(t *testing.T, tps []Transport, base Config, mutate func(*dist.TrainerConfig)) []ringRank {
	t.Helper()
	ranks := make([]ringRank, len(tps))
	for rank, tp := range tps {
		c := base
		c.Workers, c.Rank, c.Collective, c.Transport = len(tps), rank, netsim.CollectiveRing, tp
		nd, err := NewNode(c)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyTrainerCfg(1, rank, "", 0, 11, nd)
		mutate(&cfg)
		rec := &applyRecorder{Optimizer: cfg.Opt}
		cfg.Opt = rec
		tr, err := dist.NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec.hits = make([]int, tr.Dim())
		ranks[rank] = ringRank{nd, tr, rec}
	}
	return ranks
}

// stepRanks runs one Step on every listed rank concurrently and returns
// each one's error, by rank.
func stepRanks(ranks []ringRank, live []int) map[int]error {
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, r := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ranks[r].tr.Step()
		}()
	}
	wg.Wait()
	out := make(map[int]error, len(live))
	for i, r := range live {
		out[r] = errs[i]
	}
	return out
}

// rankTCP returns n loopback TCP transports, each hosting one rank over the
// shared host list, as n sidco-node processes would.
func rankTCP(t *testing.T, n int) []Transport {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	tps := make([]Transport, n)
	for i := range tps {
		tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{i}, DialTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tp.Close() })
		tps[i] = tp
	}
	return tps
}

// sharedChan returns one channel transport n times, wrapped by wrap.
func sharedChan(t *testing.T, n int, wrap func(Transport) Transport) []Transport {
	t.Helper()
	ch, err := NewChanTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })
	tps := make([]Transport, n)
	for i := range tps {
		tps[i] = wrap(ch)
	}
	return tps
}

// oddFrames hands over every received payload from a copy that starts one
// byte into its buffer, as a transport framing payloads behind an odd-sized
// header would: no float64 view of it is aligned, so the ring decodes its
// last all-gather chunk (f64Frame's fallback) instead of applying the frame.
type oddFrames struct{ Transport }

func (o oddFrames) Recv(to, from int) ([]byte, error) { return odd(o.Transport.Recv(to, from)) }

func (o oddFrames) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	return odd(o.Transport.RecvTimeout(to, from, timeout))
}

func odd(p []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	b := make([]byte, len(p)+1)
	copy(b[1:], p)
	return b[1:], nil
}

// TestApplyRouteMatchesExchangeRoute: a dense ring that hands each chunk
// of the mean to the optimizer where it lands (Node.ExchangeApply, then
// StepSpan per chunk) trains the same weights bit for bit as gathering the
// mean whole and applying it once (a wrapper that forwards only Exchange,
// then StepFlat), and both train those of one in-process trainer reducing
// in the ring's order (RingOrder). Per-rank Nodes, one trainer each, over
// channels, over channels handing every frame over unaligned (the decode
// fallback) and over TCP (the frame applied in place); 1 to 4 ranks; SGD
// and Nesterov momentum. Every step must show the route it took: one span
// per rank covering each element once, or one StepFlat.
func TestApplyRouteMatchesExchangeRoute(t *testing.T) {
	const iters = 5
	opts := []struct {
		name string
		opt  func() nn.Optimizer
	}{
		{"sgd", func() nn.Optimizer { return &nn.SGD{LR: 0.05} }},
		{"nesterov", func() nn.Optimizer { return &nn.Momentum{LR: 0.05, Mu: 0.9} }},
	}
	transports := []struct {
		name  string
		build func(t *testing.T, n int) []Transport
	}{
		{"chan", func(t *testing.T, n int) []Transport {
			return sharedChan(t, n, func(tp Transport) Transport { return tp })
		}},
		{"chan-odd", func(t *testing.T, n int) []Transport {
			return sharedChan(t, n, func(tp Transport) Transport { return oddFrames{tp} })
		}},
		{"tcp", rankTCP},
	}
	for _, o := range opts {
		for _, tc := range transports {
			for n := 1; n <= 4; n++ {
				t.Run(fmt.Sprintf("%s/%s/n%d", o.name, tc.name, n), func(t *testing.T) {
					refCfg := tinyTrainerCfg(n, 0, "", 0, 11, RingOrder{})
					refCfg.Opt = o.opt()
					ref, err := dist.NewTrainer(refCfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := ref.Run(iters); err != nil {
						t.Fatal(err)
					}
					want := nn.FlattenWeights(ref.Params(), nil)
					for _, spans := range []bool{false, true} {
						ranks := ringDeployment(t, tc.build(t, n), Config{}, func(c *dist.TrainerConfig) {
							c.Opt = o.opt()
							if !spans {
								c.Exchange = exchangeOnly{c.Exchange}
							}
						})
						chunks := 0
						if spans {
							chunks = n
						}
						live := make([]int, n)
						for r := range live {
							live[r] = r
						}
						for step := 0; step < iters; step++ {
							for r, err := range stepRanks(ranks, live) {
								if err != nil {
									t.Fatalf("rank %d step %d: %v", r, step, err)
								}
								ranks[r].rec.requireStep(t, fmt.Sprintf("rank %d step %d", r, step), chunks)
							}
						}
						for r, rk := range ranks {
							requireBitIdentical(t, fmt.Sprintf("spans=%v rank %d weight", spans, r), nn.FlattenWeights(rk.tr.Params(), nil), want)
						}
					}
				})
			}
		}
	}
}

// TestApplyRouteRetriesExactly: the ring applies nothing before the
// round's last receive, so a step that fails part way through the
// all-gather and is retried over a renegotiated group applies its mean
// exactly once. Four ranks over TCP; the link 1->2 breaks at its first
// all-gather send of step 2, after ranks 0 and 3 have received chunks of
// that round. Rank 2 times out, every rank fails the attempt and
// renegotiates; ranks 0, 2 and 3 agree on a group without rank 1 and
// retry, rank 1 runs out of retries. Every survivor's failed attempt
// applied nothing and its retry applied each element once, over three
// chunks, and their weights equal, bit for bit, those of the Exchange-only
// route under the same plan.
func TestApplyRouteRetriesExactly(t *testing.T) {
	const workers, iters, failStep, lost = 4, 4, 2, 1
	// The ring sends 2(N-1) messages a step on each link, the all-gather's
	// N-1 last.
	plan := FaultPlan{KillLink: map[Link]int{{lost, lost + 1}: 2*(workers-1)*failStep + workers - 1}}
	var want [][]float64
	for _, spans := range []bool{false, true} {
		tps := rankTCP(t, workers)
		for i := range tps {
			tps[i] = NewFaultTransport(tps[i], plan)
		}
		counters := telemetry.NewAggregator()
		base := Config{StepTimeout: 300 * time.Millisecond, MaxStepRetries: 1, Telemetry: telemetry.New(counters)}
		ranks := ringDeployment(t, tps, base, func(c *dist.TrainerConfig) {
			c.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9}
			if !spans {
				c.Exchange = exchangeOnly{c.Exchange}
			}
		})
		live := []int{0, 1, 2, 3}
		for step := 0; step < iters; step++ {
			for r, err := range stepRanks(ranks, live) {
				if r == lost && step == failStep {
					if err == nil {
						t.Fatalf("rank %d finished step %d over its broken link", r, step)
					}
					continue
				}
				if err != nil {
					t.Fatalf("rank %d step %d: %v", r, step, err)
				}
				chunks := 0
				if spans {
					chunks = len(live)
					if step >= failStep {
						chunks = workers - 1
					}
				}
				ranks[r].rec.requireStep(t, fmt.Sprintf("rank %d step %d", r, step), chunks)
			}
			if step == failStep {
				live = []int{0, 2, 3}
			}
		}
		var got [][]float64
		_, _, nodes := counters.Snapshot()
		for _, r := range live {
			if nc := nodes[int32(r)]; nc[telemetry.CounterRecoveries] != 1 || nc[telemetry.CounterPeersLost] != 1 {
				t.Fatalf("survivor %d counted %d recoveries and %d lost peers, want 1 and 1", r, nc[telemetry.CounterRecoveries], nc[telemetry.CounterPeersLost])
			}
			got = append(got, nn.FlattenWeights(ranks[r].tr.Params(), nil))
			requireBitIdentical(t, fmt.Sprintf("survivor %d weight", r), got[len(got)-1], got[0])
		}
		if !spans {
			want = got
			continue
		}
		for i, r := range live {
			requireBitIdentical(t, fmt.Sprintf("survivor %d weight", r), got[i], want[i])
		}
	}
}
