package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/nn"
)

// LoopbackStudyConfig parameterises the TCP loopback study.
type LoopbackStudyConfig struct {
	// Workers is the cluster size N (default 4).
	Workers int
	// Iters is the number of training iterations compared (default 6).
	Iters int
	// Compressor is the registry compressor (default "sidco-e").
	Compressor string
	// Delta is the compression ratio (default 0.05).
	Delta float64
	// Seed fixes every random stream.
	Seed int64
}

func (c LoopbackStudyConfig) withDefaults() LoopbackStudyConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Iters <= 0 {
		c.Iters = 6
	}
	if c.Compressor == "" {
		c.Compressor = "sidco-e"
	}
	if c.Delta <= 0 || c.Delta > 1 {
		c.Delta = 0.05
	}
	return c
}

// LoopbackStudy runs the same compressed training workload three ways —
// the in-process reducer, the cluster engine over in-process channels and
// the cluster engine over loopback TCP sockets — and tabulates the
// per-iteration global losses. Over the lossless wire all three columns
// must agree bit-for-bit, and the engine-over-TCP traffic must match
// netsim's all-gather formula exactly; the study prints both checks. The
// per-rank topology (one process per node) is cmd/sidco-node's, tested
// there.
func LoopbackStudy(w io.Writer, cfg LoopbackStudyConfig) error {
	cfg = cfg.withDefaults()

	ref, err := DemoTrainer(dist.TrainerConfig{Workers: cfg.Workers, Delta: cfg.Delta, Seed: cfg.Seed}, cfg.Compressor)
	if err != nil {
		return err
	}
	refLoss, _, err := ref.Run(cfg.Iters)
	if err != nil {
		return err
	}

	engineRun := func(tp cluster.Transport) ([]float64, int, error) {
		e, err := cluster.New(cluster.Config{
			Workers:    cfg.Workers,
			Collective: netsim.CollectiveAllGather,
			Transport:  tp,
			Verify:     true,
		})
		if err != nil {
			return nil, 0, err
		}
		defer e.Close()
		tr, err := DemoTrainer(dist.TrainerConfig{Workers: cfg.Workers, Delta: cfg.Delta, Seed: cfg.Seed, Exchange: e}, cfg.Compressor)
		if err != nil {
			return nil, 0, err
		}
		losses, _, err := tr.Run(cfg.Iters)
		if err != nil {
			return nil, 0, err
		}
		msgs, _ := e.Transport().Totals()
		return losses, msgs, nil
	}

	chanLoss, _, err := engineRun(nil)
	if err != nil {
		return fmt.Errorf("harness: loopback study, channel engine: %w", err)
	}
	tcpAddrs := make([]string, cfg.Workers)
	for i := range tcpAddrs {
		tcpAddrs[i] = "127.0.0.1:0"
	}
	tcpTransport, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: tcpAddrs})
	if err != nil {
		return err
	}
	tcpLoss, tcpMsgs, err := engineRun(tcpTransport)
	if err != nil {
		return fmt.Errorf("harness: loopback study, tcp engine: %w", err)
	}
	wantMsgs := cfg.Iters * netsim.CollectiveAllGather.Messages(cfg.Workers)
	tbl := NewTable(
		fmt.Sprintf("Loopback study — %s, N=%d, delta=%g: global loss, in-process vs channels vs TCP sockets",
			cfg.Compressor, cfg.Workers, cfg.Delta),
		"iter", "in-process", "chan engine", "tcp engine", "max |diff|")
	for i := range refLoss {
		diff := math.Max(math.Abs(chanLoss[i]-refLoss[i]), math.Abs(tcpLoss[i]-refLoss[i]))
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.17g", refLoss[i]), fmt.Sprintf("%.17g", chanLoss[i]),
			fmt.Sprintf("%.17g", tcpLoss[i]), fmt.Sprintf("%g", diff))
	}
	tbl.Render(w)
	fmt.Fprintf(w, "tcp engine traffic: %d messages, formula %d, exact=%v\n\n",
		tcpMsgs, wantMsgs, tcpMsgs == wantMsgs)
	return nil
}

// DemoTrainer builds the demo workload every cluster surface trains (the
// loopback study, cmd/sidco-cluster, cmd/sidco-node and its -check
// reference): a small dense net on synthetic class-shifted data. It
// fills Model, Loss, Opt, Batch, NewCompressor and EC over whatever the
// caller set in base, so the same model and per-worker batch streams
// come out at any (Workers, FirstWorker) split — N single-worker
// trainers draw exactly the batches of one N-worker trainer. compressor
// is a registry name; "" or "none" trains dense, anything else gets
// error feedback, and a name the registry lacks is an error.
func DemoTrainer(base dist.TrainerConfig, compressor string) (*dist.Trainer, error) {
	rng := rand.New(rand.NewSource(base.Seed))
	base.Model = nn.NewSequential(
		nn.NewDense("d1", 16, 12, rng),
		&nn.ReLU{},
		nn.NewDense("d2", 12, 4, rng),
	)
	base.Loss = &nn.SoftmaxCrossEntropy{}
	base.Opt = &nn.SGD{LR: 0.05}
	base.Batch = func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
		x := nn.NewTensor(8, 16)
		targets := make([]int, 8)
		for i := range targets {
			targets[i] = rng.Intn(4)
			for j := 0; j < 16; j++ {
				x.Data[i*16+j] = rng.NormFloat64() + float64(targets[i])
			}
		}
		return x, targets
	}
	if compressor != "" && compressor != "none" {
		if _, err := NewCompressor(compressor, base.Seed); err != nil {
			return nil, err
		}
		base.NewCompressor = Factory(compressor, base.Seed)
		base.EC = true
	}
	return dist.NewTrainer(base)
}
