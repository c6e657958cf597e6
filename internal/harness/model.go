package harness

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// wireHeader is the 9-byte frame header of every encoding format (format
// byte, uint32 dim, uint32 nnz); the modelled float32 wire carries it too.
const wireHeader = 9

// device is a compression device, described by the throughput of its
// primitive operations. The paper's micro-benchmarks (Figures 1, 12 and
// 14-17) hinge on two facts it encodes: sorting (Top-k) is
// disproportionately slow on GPUs relative to streaming passes, and
// random gather (DGC's sampling) is disproportionately slow on CPUs.
// The rates are set so the relative ordering and rough factors of those
// figures hold; absolute times are synthetic.
type device struct {
	name string
	// stream is elements/second for a sequential elementwise pass (abs,
	// compare-and-count, moment accumulation).
	stream float64
	// sort is element*log2(element) units/second for a comparison sort.
	sort float64
	// selection is elements/second for linear-time selection
	// (quickselect), the Top-k of a device that does not sort for it.
	selection float64
	// gather is elements/second for a random-index gather.
	gather float64
	// launch is the fixed cost of one pass (a kernel launch).
	launch float64
	// sortsForTopk selects the sort-based Top-k (GPUs) over quickselect.
	sortsForTopk bool
}

var (
	gpu = device{name: "gpu", stream: 1.5e10, sort: 2.5e9, gather: 6e9, launch: 8e-6, sortsForTopk: true}
	cpu = device{name: "cpu", stream: 1.2e9, sort: 1.2e8, selection: 3.2e8, gather: 6e7, launch: 2e-7}
)

// pass is the cost of one streaming pass over n elements.
func (p device) pass(n int) float64 { return float64(n)/p.stream + p.launch }

// sortCost is the cost of comparison-sorting n >= 2 elements.
func (p device) sortCost(n int) float64 {
	return float64(n)*math.Log2(float64(n))/p.sort + p.launch
}

// gatherCost is the cost of randomly gathering n elements.
func (p device) gatherCost(n int) float64 { return float64(n)/p.gather + p.launch }

// topk is the device's exact Top-k over d elements: an abs pass, then a
// sort or a quickselect (~2d expected touches).
func (p device) topk(d int) float64 {
	if p.sortsForTopk {
		return p.pass(d) + p.sortCost(d)
	}
	return p.pass(d) + (2*float64(d)/p.selection + p.launch)
}

// latency is the modelled time of one call of the registry compressor
// name on a d-dimensional gradient at ratio delta; stages is SIDCo's
// stage count (ignored by the others).
func (p device) latency(name string, d int, delta float64, stages int) (float64, error) {
	k := int(math.Max(1, math.Round(delta*float64(d))))
	switch name {
	case "none":
		return 0, nil
	case "topk":
		return p.topk(d), nil
	case "dgc":
		// Index generation touches the full vector at gather rate (why DGC
		// collapses on CPUs); then sort a 1% sample, one filter pass, and
		// a hierarchical trim over the ~2k exceedances.
		s := int(math.Max(256, 0.01*float64(d)))
		return p.gatherCost(d) + p.sortCost(s) + p.pass(d) + p.topk(2*k), nil
	case "redsync":
		// Mean+max pass, ~5 effective half-vector probes of the bounded
		// binary search, then the filter pass.
		return p.pass(d) + 5*p.pass(d)/2 + p.pass(d), nil
	case "gaussiank":
		// Mean pass, variance pass, filter pass.
		return 3 * p.pass(d), nil
	case "sidco-e":
		return p.sidco(d, stages, 1), nil
	case "sidco-gp", "sidco-p":
		// The gamma/GP variants read g once too, but accumulate a second
		// moment (for gamma a log-moment from exponent sums and mantissa
		// products): the Go loop does the work of two to three plain
		// passes, the AVX2 body (stats/gamma_amd64.s) about one. The model
		// charges two.
		return p.sidco(d, stages, 2), nil
	}
	return 0, fmt.Errorf("harness: no latency model for compressor %q", name)
}

// sidco is the multi-stage estimator: firstPasses fitting passes over d,
// stages-1 later stages over geometrically shrinking exceedances (ratio
// 0.25 per stage, a fit and a filter each), then a final filter over d.
func (p device) sidco(d, stages, firstPasses int) float64 {
	cost := float64(firstPasses) * p.pass(d)
	remaining := float64(d)
	for m := 1; m < stages; m++ {
		remaining *= 0.25
		cost += p.pass(int(remaining)) * 2
	}
	return cost + p.pass(d)
}

// iterModel prices one training iteration of a Table 1 workload as
// compute + compress + communicate, the model every simulated training
// figure (3, 5, 6, 9-13, 18) and the topology study read: net prices
// the exchange under coll (CollectiveAuto: ring dense, all-gather
// sparse, the paper's pairing) and dev the compression op.
type iterModel struct {
	net  netsim.Network
	dev  device
	coll netsim.Collective
}

// paperCluster is the paper's reference: eight nodes on 25 GbE,
// compressing on the GPU.
var paperCluster = iterModel{net: netsim.Cluster25GbE(8), dev: gpu}

// iterResult is one modelled run. Times are per-iteration means in
// seconds.
type iterResult struct {
	compute, compress, comm, iter float64
	// throughput is cluster samples/second: workers * batch / iter.
	throughput float64
	// meanRatio (ci90 its 90% interval) and geoMeanRatio summarise
	// ratios, the achieved k-hat/k of each iteration.
	meanRatio, ci90, geoMeanRatio float64
	ratios                        []float64
}

// speedup is base's iteration time over r's: the training figures'
// headline.
func (r *iterResult) speedup(base *iterResult) float64 { return base.iter / r.iter }

// run models opt.Iters iterations of wl under the registry compressor
// name at ratio delta. A statistical gradient stream at wl.Dim /
// opt.SimScale (at least 16) is compressed for real; its achieved
// k-hat/k, scaled up to wl.Dim, prices the exchange, and m.dev prices
// the compression op at wl.Dim. opt carries its defaults.
func (m iterModel) run(wl dist.Workload, name string, delta float64, opt Options) (*iterResult, error) {
	comp, err := NewCompressor(name, opt.Seed)
	if err != nil {
		return nil, err
	}
	simDim := max(wl.Dim/opt.SimScale, 16)
	gen := wl.Grad.Generator(simDim, opt.Seed)

	// Table 1's communication overhead is measured on the paper's
	// reference cluster: it says what fraction of a dense iteration that
	// fabric spends exchanging gradients, which pins the compute stage —
	// a property of the training device — to compute = refComm *
	// (1-ov)/ov. m.net then prices only communication, so a faster
	// fabric makes the same workload compute-bound rather than shrinking
	// compute with it.
	denseBytes := wireHeader + 4*wl.Dim // all d values as float32
	refComm := netsim.Cluster25GbE(8).CommTime(denseBytes, 0, false)
	compute := refComm * (1 - wl.CommOverhead) / wl.CommOverhead
	commDense := m.net.CollectiveTime(m.coll, denseBytes, denseBytes, false)

	kSim := compress.TargetK(simDim, delta)
	kFull := compress.TargetK(wl.Dim, delta)
	var (
		running  stats.Running
		logSum   float64
		ratios   = make([]float64, 0, opt.Iters)
		buf      = make([]float64, simDim)
		sumComp  float64
		sumComm  float64
		sumTotal float64
	)
	for i := 0; i < opt.Iters; i++ {
		gen.Fill(buf)
		s, err := compress.FreshCompress(comp, buf, delta)
		if err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", name, wl.Name, err)
		}
		ratio := float64(s.NNZ()) / float64(kSim)
		running.Add(ratio)
		logSum += math.Log(math.Max(ratio, 1e-12))
		ratios = append(ratios, ratio)

		stages := 0
		if r, ok := comp.(compress.SelectionReporter); ok {
			stages = r.LastSelection().Stages
		}
		compressLat, err := m.dev.latency(name, wl.Dim, delta, stages)
		if err != nil {
			return nil, err
		}
		commLat := commDense
		if name != "none" {
			// The achieved sparsity at the full model dimension, in the
			// paper's float32 wire at its smallest — (uint32 index,
			// float32 value) pairs, a bitmap or dense — over the sparse
			// collective.
			nnzFull := min(max(int(math.Round(ratio*float64(kFull))), 1), wl.Dim)
			bytes := min(wireHeader+8*nnzFull, encoding.BitmapSize(wl.Dim, nnzFull), denseBytes)
			commLat = m.net.CollectiveTime(m.coll, denseBytes, bytes, true)
		}
		sumComp += compressLat
		sumComm += commLat
		sumTotal += compute + compressLat + commLat
	}

	inv := 1 / float64(opt.Iters)
	res := &iterResult{
		compute:      compute,
		compress:     sumComp * inv,
		comm:         sumComm * inv,
		iter:         sumTotal * inv,
		meanRatio:    running.Mean(),
		ci90:         running.ConfidenceInterval(0.90),
		geoMeanRatio: math.Exp(logSum * inv),
		ratios:       ratios,
	}
	res.throughput = float64(m.net.Workers*wl.BatchSize) / res.iter
	return res, nil
}
