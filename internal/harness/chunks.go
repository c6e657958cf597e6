package harness

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
)

// ChunkStudyConfig parameterises the chunked-pipeline study.
type ChunkStudyConfig struct {
	// Workers is the cluster size N (default 4).
	Workers int
	// Dim is the gradient dimension (default 1<<18).
	Dim int
	// Delta is the compression ratio (default 0.05).
	Delta float64
	// Straggler is the compute slowdown of the last node in the
	// straggler scenario (default 8).
	Straggler float64
	// Chunks are the chunk counts swept (default 1, 2, 4, 8, 16).
	Chunks []int
	// Net is the fabric priced by the scenario (default: a commodity
	// 1 Gbps / 50 us edge fabric, the bandwidth-constrained regime the
	// paper motivates compression with — there the collective is long
	// enough for the pipeline to hide real work behind it).
	Net netsim.Network
	// Seed fixes the synthetic gradients.
	Seed int64
}

func (c ChunkStudyConfig) withDefaults() ChunkStudyConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Dim <= 0 {
		c.Dim = 1 << 18
	}
	if c.Delta <= 0 || c.Delta > 1 {
		c.Delta = 0.05
	}
	if c.Straggler <= 0 {
		c.Straggler = 8
	}
	if len(c.Chunks) == 0 {
		c.Chunks = []int{1, 2, 4, 8, 16}
	}
	if c.Net == (netsim.Network{}) {
		c.Net = netsim.Network{Workers: c.Workers, BandwidthBps: 1e9, LatencySec: 50e-6}
	}
	return c
}

// chunkRun is one measured engine exchange of the study.
type chunkRun struct {
	chunks    int
	elapsed   float64
	msgs      int
	bytes     int
	wantMsgs  int
	wantBytes int
	agg       []float64
}

// ChunkStudy measures the chunked, pipelined all-gather against the
// monolithic schedule on the alpha-beta virtual clock: top-k-compressed
// synthetic gradients are exchanged through the real message-passing
// engine at each chunk count, under a homogeneous scenario and under a
// straggler whose compression time the pipeline can hide. Every row
// cross-validates measured traffic against the exact accounting
// (encoding sizes and netsim's chunked message formula) and checks the
// chunked aggregate bit-identical to the monolithic one; the predicted
// column is netsim's closed-form pipeline span for the homogeneous case.
//
// The compression-time charge comes from the CPU device profile's top-k
// latency — the hardware regime where SIDCo's motivation (compression
// stalls the step) is strongest.
func ChunkStudy(w io.Writer, cfg ChunkStudyConfig) error {
	cfg = cfg.withDefaults()
	ins, err := chunkStudyInputs(cfg)
	if err != nil {
		return err
	}
	net := cfg.Net
	compressSec, err := device.CPU().CompressLatency("topk", cfg.Dim, cfg.Delta, 1)
	if err != nil {
		return err
	}

	scenarios := []struct {
		name      string
		straggler bool
	}{
		{"homogeneous", false},
		{fmt.Sprintf("straggler x%g", cfg.Straggler), true},
	}
	for _, sc := range scenarios {
		tbl := NewTable(
			fmt.Sprintf("Chunked pipeline study — %s: N=%d, d=%d, delta=%g, topk, %.0fGbps, compress %s/step",
				sc.name, cfg.Workers, cfg.Dim, cfg.Delta, net.BandwidthBps/1e9, FmtSecs(compressSec)),
			"chunks", "virtual time", "speedup vs mono", "predicted (uniform)",
			"msgs", "bytes", "traffic exact", "bit-identical")
		var mono *chunkRun
		for _, chunks := range cfg.Chunks {
			run, err := measureChunks(cfg, ins, scenarioFor(cfg, sc.straggler), compressSec, chunks)
			if err != nil {
				return err
			}
			if mono == nil {
				mono = run
			}
			predicted := "-"
			if !sc.straggler {
				predicted = FmtSecs(chunkPrediction(net, cfg, ins, compressSec, chunks))
			}
			tbl.AddRow(
				fmt.Sprintf("%d", run.chunks),
				FmtSecs(run.elapsed),
				FmtX(mono.elapsed/run.elapsed),
				predicted,
				fmt.Sprintf("%d", run.msgs),
				fmt.Sprintf("%d", run.bytes),
				fmt.Sprintf("%v", run.msgs == run.wantMsgs && run.bytes == run.wantBytes),
				fmt.Sprintf("%v", sameFloats(run.agg, mono.agg)),
			)
		}
		tbl.Render(w)
	}
	return nil
}

// chunkStudyInputs builds per-worker top-k-compressed synthetic
// gradients (deterministic in the seed).
func chunkStudyInputs(cfg ChunkStudyConfig) ([]dist.ExchangeInput, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ins := make([]dist.ExchangeInput, cfg.Workers)
	topk := compress.NewTopK()
	for w := range ins {
		dense := make([]float64, cfg.Dim)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		s, err := compress.FreshCompress(topk, dense, cfg.Delta)
		if err != nil {
			return nil, err
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense, Sparse: s}
	}
	return ins, nil
}

// measureChunks runs one engine exchange at the given chunk count and
// returns the measured clock, traffic and aggregate, alongside the exact
// traffic accounting (per-chunk encoded sizes over the lossless wire).
func measureChunks(cfg ChunkStudyConfig, ins []dist.ExchangeInput, scen *cluster.Scenario, compressSec float64, chunks int) (*chunkRun, error) {
	e, err := cluster.New(cluster.Config{
		Workers:     cfg.Workers,
		Collective:  netsim.CollectiveAllGather,
		Scenario:    scen,
		Chunks:      chunks,
		CompressSec: compressSec,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	agg := make([]float64, cfg.Dim)
	if err := e.Exchange(0, ins, agg); err != nil {
		return nil, err
	}
	msgs, bytes := e.Transport().Totals()
	run := &chunkRun{
		chunks:   chunks,
		elapsed:  e.Transport().Elapsed(),
		msgs:     msgs,
		bytes:    bytes,
		wantMsgs: cfg.Workers * netsim.ChunkedAllGatherMessages(cfg.Workers, chunks),
		agg:      agg,
	}
	// Exact byte accounting: every worker's selection, partitioned into
	// chunk ranges, encoded in the lossless pair format and forwarded
	// N-1 times.
	for _, in := range ins {
		for _, nnz := range cluster.ChunkNNZ(in.Sparse.Idx, cfg.Dim, chunks) {
			run.wantBytes += netsim.AllGatherTrafficBytes(cfg.Workers, encoding.Pairs64Size(cfg.Dim, nnz))
		}
	}
	return run, nil
}

// chunkPrediction is netsim's closed-form pipelined all-gather span for
// the homogeneous scenario, using worker 0's actual per-chunk payload
// sizes (all workers draw i.i.d. gradients, so they are representative).
func chunkPrediction(net netsim.Network, cfg ChunkStudyConfig, ins []dist.ExchangeInput, compressSec float64, chunks int) float64 {
	chunkBytes := make([]int, 0, chunks)
	for _, nnz := range cluster.ChunkNNZ(ins[0].Sparse.Idx, cfg.Dim, chunks) {
		chunkBytes = append(chunkBytes, encoding.Pairs64Size(cfg.Dim, nnz))
	}
	return net.ChunkedAllGatherSparse(chunkBytes, compressSec/float64(chunks))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scenarioFor builds the study's scenario (with or without the straggler
// on the last node) for the configured fabric.
func scenarioFor(cfg ChunkStudyConfig, straggler bool) *cluster.Scenario {
	s := cluster.ScenarioFromNetwork(cfg.Net)
	if straggler {
		s.StragglerFactor = map[int]float64{cfg.Workers - 1: cfg.Straggler}
	}
	return s
}
