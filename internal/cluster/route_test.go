package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// exchangeOnly and stepFlatOnly are what a decorator written before the
// optional interfaces existed looks like — the step benchmark's timing
// wrappers, a user's logging wrapper: they forward Exchange, or StepFlat,
// and nothing else, which hides ExchangeSparse / StepSparse from
// dist.Trainer and forces its dense route.
type exchangeOnly struct{ inner dist.GradientExchange }

func (x exchangeOnly) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	return x.inner.Exchange(step, ins, agg)
}

type stepFlatOnly struct{ inner nn.Optimizer }

func (o stepFlatOnly) Name() string                                { return o.inner.Name() }
func (o stepFlatOnly) Step(params []*nn.Param)                     { o.inner.Step(params) }
func (o stepFlatOnly) StepFlat(params []*nn.Param, flat []float64) { o.inner.StepFlat(params, flat) }

// routes are the trainer configurations whose results must coincide: the
// sparse route as built, and the dense route forced from either side.
var routes = []struct {
	name   string
	sparse bool
	mutate func(*dist.TrainerConfig)
}{
	{"sparse", true, func(*dist.TrainerConfig) {}},
	{"dense-exchange", false, func(c *dist.TrainerConfig) {
		if c.Exchange == nil {
			c.Exchange = dist.InProcess{}
		}
		c.Exchange = exchangeOnly{c.Exchange}
	}},
	{"dense-optimizer", false, func(c *dist.TrainerConfig) { c.Opt = stepFlatOnly{c.Opt} }},
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
		nc := agg.NodeTotals(node)
		return float64(nc.ApplyElems) / float64(nc.Steps)
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
// decorated world does. Each run's telemetry must show the route it took.
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
		t.Run(comp+"/inprocess", func(t *testing.T) {
			want := inproc(t, true, routes[0].mutate)
			for _, rt := range routes[1:] {
				got := inproc(t, rt.sparse, rt.mutate)
				requireBitIdentical(t, rt.name+" loss", got.losses, want.losses)
				requireBitIdentical(t, rt.name+" weight", got.weights, want.weights)
			}
		})
		want := inproc(t, true, routes[0].mutate)
		for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
			t.Run(fmt.Sprintf("%s/engine-%v", comp, coll), func(t *testing.T) {
				for _, rt := range routes {
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
					requireBitIdentical(t, rt.name+" loss", losses, want.losses)
					requireBitIdentical(t, rt.name+" weight", nn.FlattenWeights(tr.Params(), nil), want.weights)
				}
			})
			t.Run(fmt.Sprintf("%s/nodes-tcp-%v", comp, coll), func(t *testing.T) {
				for _, rt := range routes {
					applied := make([]func() float64, workers)
					got := runTCPDeployment(t, workers, iters, coll, comp, delta, seed, rt.mutate, func(c *dist.TrainerConfig) {
						applied[c.FirstWorker] = appliedPerStep(c)
					})
					for _, res := range got {
						if res.rank >= workers {
							continue
						}
						requireRoute(t, rt.sparse, applied[res.rank](), dim)
						requireBitIdentical(t, fmt.Sprintf("%s rank %d loss", rt.name, res.rank), res.losses, want.losses)
						requireBitIdentical(t, fmt.Sprintf("%s rank %d weight", rt.name, res.rank), res.weights, want.weights)
					}
				}
			})
		}
	}
}

// stripOdd makes one live trainer's rounds alternate: on odd steps it hands
// the engine the workers' selections densified and without their sparse
// form — a round Auto resolves to the ring and ExchangeSparse must decline —
// and on even steps the inputs as they are.
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
// before this route: a ring all-reduce forced onto sparse inputs, an Auto
// engine whose rounds alternate sparse, dense, sparse on one live trainer,
// SGD with weight decay, and Momentum. The per-step applied element count
// shows the route each step took.
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
		{"auto alternating", func(c *dist.TrainerConfig) { c.Exchange = stripOdd{engine(netsim.CollectiveAuto)} },
			func(step int) bool { return step%2 == 0 }, plain},
		{"weight decay", func(c *dist.TrainerConfig) { c.Opt = &nn.SGD{LR: 0.05, WeightDecay: 1e-4} }, func(int) bool { return false },
			[]uint64{0x4003618ef0445890, 0x4009c7280c9a1af7, 0x4002d396d59bd73e, 0x3ffd73f4ecfb88b1, 0x3ffbd4ab96b82462, 0x3ff96740bed641ce, 0xbff6af560a5107a7}},
		{"momentum", func(c *dist.TrainerConfig) { c.Opt = &nn.Momentum{LR: 0.05, Mu: 0.9} }, func(int) bool { return false },
			[]uint64{0x4003618ef0445890, 0x4009c735dd963ea3, 0x400309690f12f7c4, 0x3ff65cd7fb45d2e9, 0x3ffadbaaa54085c1, 0x3ff9f7e5e503a546, 0xc01508f27a144026}},
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
				total := agg.NodeTotals(0).ApplyElems
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
