// Command sidco-cluster demonstrates the message-passing collective
// layer: real workers exchanging encoded gradient buffers through the
// in-process channel transport, cross-validated against internal/netsim's
// analytic alpha-beta model.
//
// Sections:
//
//  1. Bit-identity: a data-parallel training run whose gradient exchange
//     goes through the cluster engine (all-gather and parameter-server
//     collectives over the lossless wire format) must reproduce the
//     in-process trainer's per-iteration losses exactly.
//  2. Measured vs predicted: per-step message and byte counts from the
//     instrumented transport against netsim's collective step formulas
//     and encoding's size accounting, plus virtual time against the
//     alpha-beta closed forms.
//  3. Scenario knobs: a straggler node and a degraded link dragging the
//     synchronous step.
//  4. Topology study: the analytic comm-time comparison across
//     collectives for the Table 1 workloads.
//  5. Loopback study: the same training run over in-process channels,
//     loopback TCP sockets (engine) and the per-rank node topology of
//     cmd/sidco-node — four bit-identical loss columns plus an exact
//     traffic cross-check over real sockets.
//
// Usage:
//
//	sidco-cluster                 # all sections, 4 workers
//	sidco-cluster -workers 8 -delta 0.01 -iters 8
//	sidco-cluster -section 2      # one section only
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/harness"
	"repro/internal/netsim"
)

func main() {
	workers := flag.Int("workers", 4, "data-parallel workers N")
	iters := flag.Int("iters", 6, "training iterations for the bit-identity run")
	delta := flag.Float64("delta", 0.05, "compression ratio k/d")
	comp := flag.String("compressor", "sidco-e", "registry compressor for the training run")
	dim := flag.Int("dim", 1<<16, "gradient dimension for the traffic section")
	straggler := flag.Float64("straggler", 4, "compute slowdown factor of the last node in section 3")
	seed := flag.Int64("seed", 1, "random seed")
	section := flag.Int("section", 0, "run a single section 1-5 (0: all)")
	flag.Parse()

	run := func(n int, f func() error) {
		if *section != 0 && *section != n {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "sidco-cluster: section %d: %v\n", n, err)
			os.Exit(1)
		}
	}
	run(1, func() error { return bitIdentity(*workers, *iters, *comp, *delta, *seed) })
	run(2, func() error { return measuredVsPredicted(*workers, *dim, *delta, *seed) })
	run(3, func() error { return scenarioKnobs(*workers, *dim, *straggler, *seed) })
	run(4, func() error {
		return harness.TopologyStudy(os.Stdout, nil, *comp,
			harness.Options{Iters: 30, SimScale: 400, Seed: *seed})
	})
	run(5, func() error {
		return harness.LoopbackStudy(os.Stdout, harness.LoopbackStudyConfig{
			Workers:    *workers,
			Iters:      *iters,
			Compressor: *comp,
			Delta:      *delta,
			Seed:       *seed,
		})
	})
}

func bitIdentity(workers, iters int, comp string, delta float64, seed int64) error {
	ref, err := harness.DemoTrainer(dist.TrainerConfig{Workers: workers, Delta: delta, Seed: seed}, comp)
	if err != nil {
		return err
	}
	refLoss, _, err := ref.Run(iters)
	if err != nil {
		return err
	}
	tbl := harness.NewTable(
		fmt.Sprintf("Cluster vs in-process training — %s, N=%d, delta=%g: per-iteration loss", comp, workers, delta),
		"iter", "in-process", "allgather", "ps", "max |diff|")
	losses := map[netsim.Collective][]float64{}
	for _, coll := range []netsim.Collective{netsim.CollectiveAllGather, netsim.CollectivePS} {
		e, err := cluster.New(cluster.Config{Workers: workers, Collective: coll, Verify: true})
		if err != nil {
			return err
		}
		tr, err := harness.DemoTrainer(dist.TrainerConfig{Workers: workers, Delta: delta, Seed: seed, Exchange: e}, comp)
		if err != nil {
			e.Close()
			return err
		}
		l, _, err := tr.Run(iters)
		e.Close()
		if err != nil {
			return err
		}
		losses[coll] = l
	}
	for i := range refLoss {
		ag, ps := losses[netsim.CollectiveAllGather][i], losses[netsim.CollectivePS][i]
		diff := math.Max(math.Abs(ag-refLoss[i]), math.Abs(ps-refLoss[i]))
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.17g", refLoss[i]), fmt.Sprintf("%.17g", ag),
			fmt.Sprintf("%.17g", ps), fmt.Sprintf("%g", diff))
	}
	tbl.Render(os.Stdout)
	return nil
}

func measuredVsPredicted(workers, dim int, delta float64, seed int64) error {
	net := netsim.Cluster25GbE(workers)
	ins, err := syntheticInputs(workers, dim, delta, seed)
	if err != nil {
		return err
	}
	nnz := ins[0].Sparse.NNZ()
	tbl := harness.NewTable(
		fmt.Sprintf("Measured traffic vs netsim predictions — N=%d, d=%d, delta=%g, 25GbE", workers, dim, delta),
		"collective", "msgs (measured)", "msgs (formula)", "bytes (measured)", "bytes (accounting)",
		"virtual time", "alpha-beta time")
	for _, coll := range []netsim.Collective{netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS} {
		e, err := cluster.New(cluster.Config{
			Workers:    workers,
			Collective: coll,
			Scenario:   cluster.ScenarioFromNetwork(net),
		})
		if err != nil {
			return err
		}
		agg := make([]float64, dim)
		if err := e.Exchange(0, ins, agg); err != nil {
			e.Close()
			return err
		}
		msgs, bytes := e.Transport().Totals()
		virtual := e.Transport().Elapsed()
		var wantMsgs, wantBytes int
		var predicted float64
		switch coll {
		case netsim.CollectiveRing:
			wantMsgs = workers * netsim.RingMessages(workers)
			wantBytes = netsim.RingTrafficBytes(workers, 8*dim)
			predicted = net.AllReduceDense(8 * dim)
		case netsim.CollectiveAllGather:
			wantMsgs = workers * netsim.AllGatherMessages(workers)
			wantBytes = workers * netsim.AllGatherTrafficBytes(workers, encoding.Pairs64Size(dim, nnz))
			predicted = net.AllGatherSparse(encoding.Pairs64Size(dim, nnz))
		case netsim.CollectivePS:
			aggNNZ := 0
			for _, v := range agg {
				if v != 0 {
					aggNNZ++
				}
			}
			wantMsgs = netsim.PSMessages(workers)
			wantBytes = netsim.PSTrafficBytes(workers, encoding.Pairs64Size(dim, nnz), encoding.Pairs64Size(dim, aggNNZ))
			predicted = net.ParameterServer(encoding.Pairs64Size(dim, nnz), encoding.Pairs64Size(dim, aggNNZ))
		}
		tbl.AddRow(coll.String(),
			fmt.Sprintf("%d", msgs), fmt.Sprintf("%d", wantMsgs),
			fmt.Sprintf("%d", bytes), fmt.Sprintf("%d", wantBytes),
			harness.FmtSecs(virtual), harness.FmtSecs(predicted))
		e.Close()
	}
	tbl.Render(os.Stdout)
	return nil
}

func scenarioKnobs(workers, dim int, straggler float64, seed int64) error {
	net := netsim.Cluster25GbE(workers)
	ins, err := syntheticInputs(workers, dim, 0, seed)
	if err != nil {
		return err
	}
	const computeSec = 1e-3
	tbl := harness.NewTable(
		fmt.Sprintf("Scenario knobs — dense ring, N=%d, d=%d, 1ms compute/step", workers, dim),
		"scenario", "step time", "drag vs nominal")
	runScenario := func(name string, scen *cluster.Scenario) (float64, error) {
		e, err := cluster.New(cluster.Config{
			Workers:    workers,
			Collective: netsim.CollectiveRing,
			Scenario:   scen,
			ComputeSec: computeSec,
		})
		if err != nil {
			return 0, err
		}
		defer e.Close()
		agg := make([]float64, dim)
		if err := e.Exchange(0, ins, agg); err != nil {
			return 0, err
		}
		return e.Transport().Elapsed(), nil
	}
	nominal, err := runScenario("nominal", cluster.ScenarioFromNetwork(net))
	if err != nil {
		return err
	}
	tbl.AddRow("nominal", harness.FmtSecs(nominal), "1.00x")

	slow := cluster.ScenarioFromNetwork(net)
	slow.StragglerFactor = map[int]float64{workers - 1: straggler}
	straggled, err := runScenario("straggler", slow)
	if err != nil {
		return err
	}
	tbl.AddRow(fmt.Sprintf("node %d compute x%g", workers-1, straggler),
		harness.FmtSecs(straggled), harness.FmtX(straggled/nominal))

	weak := cluster.ScenarioFromNetwork(net)
	weak.LinkBandwidthBps = map[cluster.Link]float64{
		{From: 0, To: 1}: net.BandwidthBps / 10,
	}
	degraded, err := runScenario("slow link", weak)
	if err != nil {
		return err
	}
	tbl.AddRow("link 0->1 at 1/10 bandwidth", harness.FmtSecs(degraded), harness.FmtX(degraded/nominal))
	tbl.Render(os.Stdout)
	return nil
}

// syntheticInputs draws per-worker gradients (top-k compressed when
// delta > 0).
func syntheticInputs(workers, dim int, delta float64, seed int64) ([]dist.ExchangeInput, error) {
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
				return nil, err
			}
			ins[w].Sparse = s
		}
	}
	return ins, nil
}
