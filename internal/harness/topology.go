package harness

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
)

// topologyCollectives are the schedules the topology study sweeps; they
// are the same three that internal/cluster executes as real message
// passing.
var topologyCollectives = []netsim.Collective{
	netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS,
}

// TopologyStudy compares the three collective topologies on the LSTM-PTB
// and ResNet-20 workloads under SIDCo-E: per-iteration communication
// time and speedup over the dense ring baseline, at each compression
// ratio. It is the analytic counterpart of CollectiveStudy's measured
// exchanges, priced by the figures' iteration model under each
// collective.
func TopologyStudy(w io.Writer, opt Options) error {
	const compressor = "sidco-e"
	opt = opt.withDefaults()
	for _, wlName := range []string{"lstm-ptb", "resnet20-cifar10"} {
		wl, err := dist.WorkloadByName(wlName)
		if err != nil {
			return err
		}
		tbl := NewTable(
			fmt.Sprintf("Topology study — %s (%s, 8x 25GbE): comm time and speed-up vs dense ring", wlName, compressor),
			"collective", "dense comm",
			fmt.Sprintf("comm d=%g", Ratios[0]), fmt.Sprintf("comm d=%g", Ratios[2]),
			fmt.Sprintf("speedup d=%g", Ratios[0]), fmt.Sprintf("speedup d=%g", Ratios[2]))
		ring := paperCluster
		ring.coll = netsim.CollectiveRing
		base, err := ring.run(wl, "none", 1, opt)
		if err != nil {
			return err
		}
		for _, coll := range topologyCollectives {
			model := paperCluster
			model.coll = coll
			dense, err := model.run(wl, "none", 1, opt)
			if err != nil {
				return err
			}
			row := []string{coll.String(), FmtSecs(dense.comm)}
			var comms, speeds []string
			for _, delta := range []float64{Ratios[0], Ratios[2]} {
				res, err := model.run(wl, compressor, delta, opt)
				if err != nil {
					return err
				}
				comms = append(comms, FmtSecs(res.comm))
				speeds = append(speeds, FmtX(res.speedup(base)))
			}
			row = append(row, comms...)
			row = append(row, speeds...)
			tbl.AddRow(row...)
		}
		tbl.Render(w)
	}
	return nil
}

// CollectiveStudy runs real exchanges through the cluster engine on the
// in-process channel transport and prints two tables. The first holds
// each collective's measured messages, bytes and virtual time against
// netsim's step formulas, encoding's size accounting and the alpha-beta
// closed forms on 25 GbE. The second drags a dense ring step with a
// straggler node and with a degraded link. Only opt.Seed is read: the
// gradients are synthetic, N = 4, d = 2^16, delta = 0.05.
func CollectiveStudy(w io.Writer, opt Options) error {
	const (
		workers   = 4
		dim       = 1 << 16
		delta     = 0.05
		straggler = 4.0
	)
	// exchange runs one step of an engine over ins and returns the
	// aggregate with the transport's totals and virtual time.
	exchange := func(cfg cluster.Config, ins []dist.ExchangeInput) (agg []float64, msgs, bytes int, virtual float64, err error) {
		cfg.Workers = workers
		e, err := cluster.New(cfg)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		defer e.Close()
		agg = make([]float64, dim)
		if err := e.Exchange(0, ins, agg); err != nil {
			return nil, 0, 0, 0, err
		}
		msgs, bytes = e.Transport().Totals()
		return agg, msgs, bytes, e.Transport().Elapsed(), nil
	}
	net := netsim.Cluster25GbE(workers)
	ins, err := syntheticInputs(workers, dim, delta, opt.Seed)
	if err != nil {
		return err
	}
	up := encoding.Pairs64Size(dim, ins[0].Sparse.NNZ())
	tbl := NewTable(
		fmt.Sprintf("Measured traffic vs netsim predictions — N=%d, d=%d, delta=%g, 25GbE", workers, dim, delta),
		"collective", "msgs (measured)", "msgs (formula)", "bytes (measured)", "bytes (accounting)",
		"virtual time", "alpha-beta time")
	for _, coll := range topologyCollectives {
		agg, msgs, bytes, virtual, err := exchange(cluster.Config{Collective: coll, Scenario: cluster.ScenarioFromNetwork(net)}, ins)
		if err != nil {
			return err
		}
		var wantBytes int
		var predicted float64
		switch coll {
		case netsim.CollectiveRing:
			wantBytes, predicted = netsim.RingTrafficBytes(workers, 8*dim), net.AllReduceDense(8*dim)
		case netsim.CollectiveAllGather:
			wantBytes, predicted = workers*netsim.AllGatherTrafficBytes(workers, up), net.AllGatherSparse(up)
		case netsim.CollectivePS:
			aggNNZ := 0
			for _, v := range agg {
				if v != 0 {
					aggNNZ++
				}
			}
			down := encoding.Pairs64Size(dim, aggNNZ)
			wantBytes, predicted = netsim.PSTrafficBytes(workers, up, down), net.ParameterServer(up, down)
		}
		tbl.AddRow(coll.String(),
			fmt.Sprintf("%d", msgs), fmt.Sprintf("%d", coll.Messages(workers)),
			fmt.Sprintf("%d", bytes), fmt.Sprintf("%d", wantBytes),
			FmtSecs(virtual), FmtSecs(predicted))
	}
	tbl.Render(w)

	dense, err := syntheticInputs(workers, dim, 0, opt.Seed)
	if err != nil {
		return err
	}
	slow := cluster.ScenarioFromNetwork(net)
	slow.StragglerFactor = map[int]float64{workers - 1: straggler}
	weak := cluster.ScenarioFromNetwork(net)
	weak.LinkBandwidthBps = map[cluster.Link]float64{{From: 0, To: 1}: net.BandwidthBps / 10}
	tbl = NewTable(
		fmt.Sprintf("Scenario knobs — dense ring, N=%d, d=%d, 1ms compute/step", workers, dim),
		"scenario", "step time", "drag vs nominal")
	var nominal float64
	for i, sc := range []struct {
		name string
		scen *cluster.Scenario
	}{
		{"nominal", cluster.ScenarioFromNetwork(net)},
		{fmt.Sprintf("node %d compute x%g", workers-1, straggler), slow},
		{"link 0->1 at 1/10 bandwidth", weak},
	} {
		_, _, _, t, err := exchange(cluster.Config{Collective: netsim.CollectiveRing, Scenario: sc.scen, ComputeSec: 1e-3}, dense)
		if err != nil {
			return err
		}
		if i == 0 {
			nominal = t
		}
		tbl.AddRow(sc.name, FmtSecs(t), FmtX(t/nominal))
	}
	tbl.Render(w)
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
