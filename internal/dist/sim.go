package dist

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/device"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// SimConfig drives one simulated training run of a Table 1 workload: a
// statistical gradient stream is compressed for real at reduced
// dimensionality, and the achieved sparsity prices the communication of
// the full-dimension model on the configured network while the device
// profile prices the compression op itself.
type SimConfig struct {
	// Workload is the Table 1 entry being simulated.
	Workload Workload
	// Net is the cluster fabric (zero value: the paper's 8-node 25 GbE).
	Net netsim.Network
	// Collective selects the exchange schedule the network prices
	// (ring, all-gather, parameter server). The zero value CollectiveAuto
	// keeps the paper's pairing: ring for dense, all-gather for sparse.
	Collective netsim.Collective
	// Dev is the compression device profile (zero value: GPU).
	Dev device.Profile
	// NewCompressor constructs the compressor under test (nil: none).
	NewCompressor func() compress.Compressor
	// Delta is the target compression ratio k/d.
	Delta float64
	// Iters is the number of simulated iterations (default 100).
	Iters int
	// SimScale divides the gradient dimensionality for the statistical
	// stream (default 100), keeping multi-million-parameter workloads
	// tractable while the timeline model still uses the full dimension.
	SimScale int
	// Seed fixes the gradient stream and randomized compressors.
	Seed int64
}

// SimResult aggregates one simulated run. Time fields are per-iteration
// means in seconds.
type SimResult struct {
	// Workload and Compressor identify the run.
	Workload   string
	Compressor string
	// Delta is the target ratio of the run.
	Delta float64

	// ComputeTime is the forward+backward time.
	ComputeTime float64
	// CompressTime is the modelled compression-op time on the device.
	CompressTime float64
	// CommTime is the gradient-exchange time on the network.
	CommTime float64
	// IterTime = ComputeTime + CompressTime + CommTime.
	IterTime float64
	// Throughput is cluster samples/second: Workers * BatchSize / IterTime.
	Throughput float64

	// MeanRatio is the mean achieved k-hat/k with CI90 its 90% interval.
	MeanRatio float64
	CI90      float64
	// GeoMeanRatio is the geometric mean of k-hat/k.
	GeoMeanRatio float64
	// RatioSeries is the per-iteration achieved k-hat/k.
	RatioSeries []float64
}

// Speedup returns the training speed-up of res over base (ratio of
// iteration times), the headline metric of the training figures.
func Speedup(res, base *SimResult) float64 {
	if res == nil || base == nil || res.IterTime <= 0 {
		return math.NaN()
	}
	return base.IterTime / res.IterTime
}

// SimulateWorkload runs the timeline simulation described on SimConfig.
func SimulateWorkload(cfg SimConfig) (*SimResult, error) {
	wl := cfg.Workload
	if wl.Dim <= 0 || wl.BatchSize <= 0 {
		return nil, fmt.Errorf("dist: workload %q has no dimensions (use Table1/WorkloadByName)", wl.Name)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	if cfg.SimScale <= 0 {
		cfg.SimScale = 100
	}
	if cfg.Net == (netsim.Network{}) {
		cfg.Net = netsim.Cluster25GbE(8)
	} else if cfg.Net.Workers < 1 || cfg.Net.BandwidthBps <= 0 || cfg.Net.LatencySec < 0 {
		// netsim treats an invalid fabric as cost-0; catch it here so a
		// half-specified Net errors instead of simulating free comms.
		return nil, fmt.Errorf("dist: invalid network %+v", cfg.Net)
	}
	if cfg.Dev.Name == "" {
		cfg.Dev = device.GPU()
	} else if cfg.Dev.StreamRate <= 0 || cfg.Dev.SortRate <= 0 || cfg.Dev.SelectRate <= 0 ||
		cfg.Dev.GatherRate <= 0 || cfg.Dev.ComputeRate <= 0 {
		// A named profile with zero rates would divide to +Inf latencies.
		return nil, fmt.Errorf("dist: invalid device profile %q", cfg.Dev.Name)
	}
	var comp compress.Compressor
	if cfg.NewCompressor != nil {
		comp = cfg.NewCompressor()
	}
	if comp == nil {
		comp = compress.None{}
	}
	name := comp.Name()
	isNone := name == "none"
	if !isNone && (cfg.Delta <= 0 || cfg.Delta > 1) {
		return nil, fmt.Errorf("dist: Delta = %v outside (0, 1]", cfg.Delta)
	}
	delta := cfg.Delta
	if isNone && (delta <= 0 || delta > 1) {
		delta = 1 // None ignores delta; keep TargetK well-defined
	}

	simDim := wl.Dim / cfg.SimScale
	if simDim < 16 {
		simDim = 16
	}
	gen := wl.Grad.Generator(simDim, cfg.Seed)

	// Table 1's communication overhead is measured on the paper's
	// reference cluster: it says what fraction of a dense iteration that
	// fabric spends exchanging gradients, which pins the compute stage —
	// a property of the training device — to compute = refComm *
	// (1-ov)/ov. The configured Net then prices only communication, so a
	// faster fabric makes the same workload compute-bound rather than
	// shrinking compute with it.
	refComm := netsim.Cluster25GbE(8).CommTime(encoding.DenseSize(wl.Dim), 0, false)
	var computeTime float64
	if wl.CommOverhead > 0 && wl.CommOverhead < 1 {
		computeTime = refComm * (1 - wl.CommOverhead) / wl.CommOverhead
	} else {
		computeTime = cfg.Dev.ComputeTime(wl.Dim, wl.BatchSize)
	}
	denseBytes := encoding.DenseSize(wl.Dim)
	commDense := cfg.Net.CollectiveTime(cfg.Collective, denseBytes, denseBytes, false)

	kSim := compress.TargetK(simDim, delta)
	kFull := compress.TargetK(wl.Dim, delta)
	var (
		running  stats.Running
		logSum   float64
		series   = make([]float64, 0, cfg.Iters)
		buf      = make([]float64, simDim)
		sumComp  float64
		sumComm  float64
		sumTotal float64
	)
	for i := 0; i < cfg.Iters; i++ {
		gen.Fill(buf)
		s, err := compress.FreshCompress(comp, buf, delta)
		if err != nil {
			return nil, fmt.Errorf("dist: %s on %s: %w", name, wl.Name, err)
		}
		ratio := float64(s.NNZ()) / float64(kSim)
		running.Add(ratio)
		logSum += math.Log(math.Max(ratio, 1e-12))
		series = append(series, ratio)

		stages := 1
		if r, ok := comp.(compress.SelectionReporter); ok {
			stages = max(1, r.LastSelection().Stages)
		}
		compressLat, err := cfg.Dev.CompressLatency(name, wl.Dim, delta, stages)
		if err != nil {
			return nil, fmt.Errorf("dist: %s on %s: %w", name, wl.Name, err)
		}

		var commLat float64
		if isNone {
			commLat = commDense
		} else {
			// Scale the achieved sparsity up to the full model dimension
			// and price the smallest wire format over the sparse
			// collective.
			nnzFull := int(math.Round(ratio * float64(kFull)))
			if nnzFull < 1 {
				nnzFull = 1
			}
			if nnzFull > wl.Dim {
				nnzFull = wl.Dim
			}
			_, bytes := encoding.BestFormat(wl.Dim, nnzFull, encoding.FormatPairs)
			commLat = cfg.Net.CollectiveTime(cfg.Collective, denseBytes, bytes, true)
		}
		sumComp += compressLat
		sumComm += commLat
		sumTotal += computeTime + compressLat + commLat
	}

	inv := 1 / float64(cfg.Iters)
	res := &SimResult{
		Workload:     wl.Name,
		Compressor:   name,
		Delta:        cfg.Delta,
		ComputeTime:  computeTime,
		CompressTime: sumComp * inv,
		CommTime:     sumComm * inv,
		IterTime:     sumTotal * inv,
		MeanRatio:    running.Mean(),
		CI90:         running.ConfidenceInterval(0.90),
		GeoMeanRatio: math.Exp(logSum * inv),
		RatioSeries:  series,
	}
	if res.IterTime > 0 {
		res.Throughput = float64(cfg.Net.Workers*wl.BatchSize) / res.IterTime
	}
	return res, nil
}
