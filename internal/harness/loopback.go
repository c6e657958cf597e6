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

// The loopback study's fixed workload: N workers training the demo net
// with SIDCo-E at ratio delta.
const (
	loopbackWorkers    = 4
	loopbackCompressor = "sidco-e"
	loopbackDelta      = 0.05
)

// LoopbackStudy runs the same compressed training workload four ways —
// the in-process reducer, the cluster engine's all-gather and
// parameter-server collectives over in-process channels, and its
// all-gather over loopback TCP sockets — for opt.Iters iterations and
// tabulates the per-iteration global losses. Over the lossless wire
// every column must agree bit-for-bit with the in-process one, and the
// engine-over-TCP traffic must match netsim's all-gather formula
// exactly; the study prints both checks. The per-rank topology
// (one process per node) is cmd/sidco-node's, tested there.
func LoopbackStudy(w io.Writer, opt Options) error {
	iters := opt.withDefaults().Iters
	cfg := dist.TrainerConfig{Workers: loopbackWorkers, Delta: loopbackDelta, Seed: opt.Seed}
	ref, err := DemoTrainer(cfg, loopbackCompressor)
	if err != nil {
		return err
	}
	refLoss, _, err := ref.Run(iters)
	if err != nil {
		return err
	}

	engineRun := func(coll netsim.Collective, tp cluster.Transport) ([]float64, int, error) {
		e, err := cluster.New(cluster.Config{
			Workers:    loopbackWorkers,
			Collective: coll,
			Transport:  tp,
			Verify:     true,
		})
		if err != nil {
			return nil, 0, err
		}
		defer e.Close()
		cfg := cfg
		cfg.Exchange = e
		tr, err := DemoTrainer(cfg, loopbackCompressor)
		if err != nil {
			return nil, 0, err
		}
		losses, _, err := tr.Run(iters)
		if err != nil {
			return nil, 0, err
		}
		msgs, _ := e.Transport().Totals()
		return losses, msgs, nil
	}

	agLoss, _, err := engineRun(netsim.CollectiveAllGather, nil)
	if err != nil {
		return fmt.Errorf("harness: loopback study, channel all-gather: %w", err)
	}
	psLoss, _, err := engineRun(netsim.CollectivePS, nil)
	if err != nil {
		return fmt.Errorf("harness: loopback study, channel ps: %w", err)
	}
	tcpAddrs := make([]string, loopbackWorkers)
	for i := range tcpAddrs {
		tcpAddrs[i] = "127.0.0.1:0"
	}
	tcpTransport, err := cluster.NewTCPTransport(cluster.TCPConfig{Addrs: tcpAddrs})
	if err != nil {
		return err
	}
	tcpLoss, tcpMsgs, err := engineRun(netsim.CollectiveAllGather, tcpTransport)
	if err != nil {
		return fmt.Errorf("harness: loopback study, tcp all-gather: %w", err)
	}
	wantMsgs := iters * netsim.CollectiveAllGather.Messages(loopbackWorkers)
	tbl := NewTable(
		fmt.Sprintf("Loopback study — %s, N=%d, delta=%g: global loss, in-process vs cluster engine over channels and TCP sockets",
			loopbackCompressor, loopbackWorkers, loopbackDelta),
		"iter", "in-process", "allgather chan", "ps chan", "allgather tcp", "max |diff|")
	for i, want := range refLoss {
		diff := 0.0
		for _, got := range []float64{agLoss[i], psLoss[i], tcpLoss[i]} {
			diff = math.Max(diff, math.Abs(got-want))
		}
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.17g", want), fmt.Sprintf("%.17g", agLoss[i]),
			fmt.Sprintf("%.17g", psLoss[i]), fmt.Sprintf("%.17g", tcpLoss[i]),
			fmt.Sprintf("%g", diff))
	}
	tbl.Render(w)
	fmt.Fprintf(w, "tcp engine traffic: %d messages, formula %d, exact=%v\n\n",
		tcpMsgs, wantMsgs, tcpMsgs == wantMsgs)
	return nil
}

// DemoTrainer builds the demo workload every cluster surface trains (the
// loopback study, cmd/sidco-node and its -check reference): a small
// dense net on synthetic class-shifted data. It fills Model, Loss, Opt,
// Batch, NewCompressor and EC over whatever the caller set in base, so
// the same model and per-worker batch streams come out at any (Workers,
// FirstWorker) split — N single-worker trainers draw exactly the batches
// of one N-worker trainer. compressor is a registry name; "" or "none"
// trains dense, anything else gets error feedback, and a name the
// registry lacks is an error.
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
		base.NewCompressor = factory(compressor, base.Seed)
		base.EC = true
	}
	return dist.NewTrainer(base)
}
