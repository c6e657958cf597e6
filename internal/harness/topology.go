package harness

import (
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/netsim"
)

// topologyCollectives are the schedules the topology study sweeps; they
// are the same three that internal/cluster executes as real message
// passing.
var topologyCollectives = []netsim.Collective{
	netsim.CollectiveRing, netsim.CollectiveAllGather, netsim.CollectivePS,
}

// TopologyStudy compares the three collective topologies on every
// requested workload: per-iteration communication time and speedup over
// the dense ring baseline, at each compression ratio. It is the analytic
// counterpart of cmd/sidco-cluster's measured exchanges, priced by the
// figures' iteration model under each collective.
func TopologyStudy(w io.Writer, workloads []string, compressor string, opt Options) error {
	opt = opt.withDefaults()
	if len(workloads) == 0 {
		workloads = []string{"lstm-ptb", "resnet20-cifar10"}
	}
	if compressor == "" {
		compressor = "sidco-e"
	}
	for _, wlName := range workloads {
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
