package main

// adapter.go is the only file of the benchmark that calls into
// repro/internal: it builds the two kinds of world a workload runs in,
// wraps the public interfaces of each layer in timing decorators, and
// replays captured inputs through single layers. Everything else in this
// package (timing loop, statistics, reports) sees only the types declared
// here. The exported identifiers used are listed in README.md under
// "API surface"; none of them is one ROADMAP item 3 marks for deletion.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/simgrad"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// nowNanos is the benchmark's one clock: the monotonic clock the repo's
// own telemetry spans use, so bench spans and repo spans are comparable.
func nowNanos() int64 { return telemetry.Monotonic() }

// stepRec is what one step leaves behind for the timing loop. The per-rank
// fields are written by that rank's goroutine only.
type stepRec struct {
	Start, End [ranks]int64   // wall-clock bounds of the step on each rank
	Loss       [ranks]float64 // global loss as each rank computed it (train)
	NNZ        [ranks]int     // elements each worker contributed
	Msgs       [ranks]int     // gradient messages sent (grad: all in slot 0)
	Bytes      [ranks]int     // gradient payload bytes sent (grad: all in slot 0)
	AggNNZ     int            // non-zeros of the aggregate (parameter server only)
	AggBad     bool           // aggregate disagreed with dist.InProcess (grad)
	AggChecked bool
}

// layout tells the analysis which lane plays which role.
type layout struct {
	train   bool
	workers []int // lanes whose arrival at the exchange is compared
	nodes   []int // lanes that send and receive inside an exchange
	driver  int   // lane holding the step/exchange/apply spans (grad)
	lanes   int
}

// world is one built instance of a workload: the program under test plus
// the inputs it was generated from.
type world interface {
	// run executes steps first..first+len(recs)-1.
	run(first int, recs []stepRec) error
	// wantTraffic is the netsim closed form for a step's messages and bytes.
	wantTraffic(rec *stepRec) (msgs, bytes int)
	// khatTarget is the k the compressor aims for (0: no compressor).
	khatTarget() int
	close()
}

// gate is a telemetry sink that can be switched on between segments, so
// one world serves the baseline and the telemetry-on segment.
type gate struct {
	on  atomic.Bool
	agg *telemetry.Aggregator
}

func (g *gate) Emit(e telemetry.Event) {
	if g.on.Load() {
		g.agg.Emit(e)
	}
}

// instruments is what a traced world is built with; the zero value builds
// the untraced world, with no decorator anywhere.
type instruments struct {
	tr      *tracer
	gate    *gate
	capture *capture
}

func newInstruments(lanes int) instruments {
	return instruments{
		tr:      newTracer(lanes, nowNanos),
		gate:    &gate{agg: telemetry.NewAggregator()},
		capture: &capture{},
	}
}

func (in instruments) telemetry() *telemetry.Tracer {
	if in.gate == nil {
		return nil
	}
	return telemetry.New(in.gate)
}

// capture holds the inputs of one designated step, copied out for the
// replay probes. It is armed for a single extra step after measuring.
type capture struct {
	armed  atomic.Bool
	mu     sync.Mutex
	inner  [ranks][]float64 // what each inner estimator was handed
	dense  [ranks][]float64 // each worker's dense gradient at the exchange
	sparse [ranks]*tensor.Sparse
}

func (c *capture) isArmed() bool { return c != nil && c.armed.Load() }

// ---- decorators ----------------------------------------------------------

// timedCompressor wraps a compress.Compressor in a span.
type timedCompressor struct {
	inner compress.Compressor
	in    instruments
	lane  int
	name  spanName
}

func (c *timedCompressor) Name() string { return c.inner.Name() }

// Compress is the allocating form the interface still requires; the
// benchmark never calls it.
func (c *timedCompressor) Compress(g []float64, delta float64) (*tensor.Sparse, error) {
	dst := &tensor.Sparse{Dim: len(g)}
	if err := c.CompressInto(dst, g, delta); err != nil {
		return nil, err
	}
	return dst, nil
}

func (c *timedCompressor) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	if c.name == spInner && c.in.capture.isArmed() {
		c.in.capture.mu.Lock()
		c.in.capture.inner[c.lane] = append([]float64(nil), g...)
		c.in.capture.mu.Unlock()
	}
	ref := c.in.tr.begin(c.lane, c.name)
	err := c.inner.CompressInto(dst, g, delta)
	c.in.tr.end(ref)
	return err
}

// SetParallelism forwards to the wrapped compressor, as compress.SetParallelism expects.
func (c *timedCompressor) SetParallelism(p int) { compress.SetParallelism(c.inner, p) }

// timedExchange wraps a dist.GradientExchange in a span and hands the
// span to the lanes of the goroutines the exchange fans out to.
type timedExchange struct {
	inner  dist.GradientExchange
	in     instruments
	lane   int
	adopts []int
}

func (x *timedExchange) Exchange(step int, ins []dist.ExchangeInput, agg []float64) error {
	if x.in.capture.isArmed() {
		x.in.capture.mu.Lock()
		for _, in := range ins {
			x.in.capture.dense[in.Worker] = append([]float64(nil), in.Dense...)
			if in.Sparse != nil {
				cp := &tensor.Sparse{}
				cp.CopyFrom(in.Sparse)
				x.in.capture.sparse[in.Worker] = cp
			}
		}
		x.in.capture.mu.Unlock()
	}
	ref := x.in.tr.begin(x.lane, spExchange)
	for _, ln := range x.adopts {
		x.in.tr.adopt(ln, ref)
	}
	err := x.inner.Exchange(step, ins, agg)
	x.in.tr.end(ref)
	return err
}

// timedTransport wraps a cluster.Transport; node ids are lane ids.
type timedTransport struct {
	inner cluster.Transport
	tr    *tracer
}

func (t *timedTransport) Nodes() int   { return t.inner.Nodes() }
func (t *timedTransport) Close() error { return t.inner.Close() }

func (t *timedTransport) Send(from, to int, payload []byte) error {
	ref := t.tr.begin(from, spSend)
	err := t.inner.Send(from, to, payload)
	t.tr.end(ref)
	return err
}

func (t *timedTransport) Recv(to, from int) ([]byte, error) {
	ref := t.tr.begin(to, spRecv)
	p, err := t.inner.Recv(to, from)
	t.tr.end(ref)
	return p, err
}

// RecvTimeout keeps the wrapped transport's deadline support visible
// (cluster.TimeoutRecver), so a decorated node times out like a bare one.
func (t *timedTransport) RecvTimeout(to, from int, timeout time.Duration) ([]byte, error) {
	tr, ok := t.inner.(cluster.TimeoutRecver)
	if !ok {
		return t.Recv(to, from)
	}
	ref := t.tr.begin(to, spRecv)
	p, err := tr.RecvTimeout(to, from, timeout)
	t.tr.end(ref)
	return p, err
}

// timedOptimizer wraps nn.Optimizer.StepFlat in a span.
type timedOptimizer struct {
	nn.Optimizer
	tr   *tracer
	lane int
}

func (o *timedOptimizer) StepFlat(params []*nn.Param, flat []float64) {
	ref := o.tr.begin(o.lane, spApply)
	o.Optimizer.StepFlat(params, flat)
	o.tr.end(ref)
}

// ---- shared pieces -------------------------------------------------------

// newEstimator builds the workload's bare threshold estimator.
func newEstimator(name string) (compress.Compressor, error) {
	switch name {
	case "sidco-e":
		return core.NewE(), nil
	case "sidco-gp":
		return core.NewGammaGP(), nil
	case "topk":
		return compress.NewTopK(), nil
	}
	return nil, fmt.Errorf("unknown compressor %q", name)
}

func collectiveOf(s spec) (netsim.Collective, error) {
	switch s.Collective {
	case "allgather":
		return netsim.CollectiveAllGather, nil
	case "ring":
		return netsim.CollectiveRing, nil
	case "ps":
		return netsim.CollectivePS, nil
	}
	return 0, fmt.Errorf("unknown collective %q", s.Collective)
}

func wireOf(s spec) (cluster.Wire, encoding.Format, error) {
	switch s.Wire {
	case "lossless":
		return cluster.WireLossless, encoding.FormatPairs64, nil
	case "bitmap":
		return cluster.WireBitmap, encoding.FormatBitmap, nil
	}
	return 0, 0, fmt.Errorf("unknown wire %q", s.Wire)
}

// newEC builds one worker's error-feedback compressor the way the
// deployment under test does: EC around the estimator, pre-rounding to
// the wire's precision on a lossy wire. With instruments, the estimator
// and the wrapper are each decorated.
func newEC(s spec, in instruments, lane int) (compress.Compressor, error) {
	est, err := newEstimator(s.Compressor)
	if err != nil {
		return nil, err
	}
	_, format, err := wireOf(s)
	if err != nil {
		return nil, err
	}
	if in.tr != nil {
		est = &timedCompressor{inner: est, in: in, lane: lane, name: spInner}
	}
	ec := compress.NewErrorFeedback(est)
	if format != encoding.FormatPairs64 {
		ec.SetWireFormat(format)
	}
	if in.tr == nil {
		return ec, nil
	}
	return &timedCompressor{inner: ec, in: in, lane: lane, name: spCompress}, nil
}

// trafficFor is the netsim closed form for one step of spec s, given what
// each worker contributed.
func trafficFor(s spec, dim int, rec *stepRec) (msgs, bytes int, err error) {
	coll, err := collectiveOf(s)
	if err != nil {
		return 0, 0, err
	}
	_, format, err := wireOf(s)
	if err != nil {
		return 0, 0, err
	}
	switch coll {
	case netsim.CollectiveRing:
		return ranks * netsim.RingMessages(ranks), netsim.RingTrafficBytes(ranks, 8*dim), nil
	case netsim.CollectiveAllGather:
		for r := 0; r < ranks; r++ {
			sz, err := encoding.Size(format, dim, rec.NNZ[r])
			if err != nil {
				return 0, 0, err
			}
			bytes += netsim.AllGatherTrafficBytes(ranks, sz)
		}
		return ranks * netsim.AllGatherMessages(ranks), bytes, nil
	default:
		pull, err := encoding.Size(format, dim, rec.AggNNZ)
		if err != nil {
			return 0, 0, err
		}
		for r := 0; r < ranks; r++ {
			push, err := encoding.Size(format, dim, rec.NNZ[r])
			if err != nil {
				return 0, 0, err
			}
			bytes += netsim.PSTrafficBytes(1, push, pull)
		}
		return netsim.PSMessages(ranks), bytes, nil
	}
}

// ---- train world ---------------------------------------------------------

// trainInputs is what a train workload generates from its seed.
type trainInputs struct {
	images *data.Images
}

func newTrainInputs(s spec, seed int64) *trainInputs {
	return &trainInputs{images: data.NewImages(data.ImagesConfig{
		N: s.DatasetN, C: s.ImageC, H: s.ImageH, W: s.ImageW, Classes: s.Classes, Noise: s.Noise, Seed: seed,
	})}
}

func newModel(s spec, seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		&nn.Flatten{},
		nn.NewDense("d1", s.inputDim(), s.Hidden, rng),
		&nn.ReLU{},
		nn.NewDense("d2", s.Hidden, s.Hidden, rng),
		&nn.ReLU{},
		nn.NewDense("d3", s.Hidden, s.Classes, rng),
	)
}

// newTrainer builds a trainer over the given worker range. With
// instruments every hook the trainer offers is decorated and the error
// feedback wrapper is built here (TrainerConfig.EC off) so that the
// estimator inside it can be timed on its own.
func newTrainer(s spec, seed int64, inp *trainInputs, workers, first int, ex dist.GradientExchange, in instruments) (*dist.Trainer, error) {
	cfg := dist.TrainerConfig{
		Workers:     workers,
		FirstWorker: first,
		Model:       newModel(s, seed),
		Loss:        &nn.SoftmaxCrossEntropy{},
		Opt:         &nn.SGD{LR: s.LR},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return inp.images.Batch(rng, s.Batch)
		},
		Delta:     s.Delta,
		Seed:      seed,
		Exchange:  ex,
		Telemetry: in.telemetry(),
	}
	if in.tr != nil {
		lane := first
		batch := cfg.Batch
		cfg.Batch = func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			ref := in.tr.begin(lane, spBatch)
			x, y := batch(worker, rng)
			in.tr.end(ref)
			return x, y
		}
		cfg.Opt = &timedOptimizer{Optimizer: cfg.Opt, tr: in.tr, lane: lane}
	}
	switch {
	case s.Compressor == "none":
	case in.tr == nil:
		// The shipped configuration: the trainer wraps each worker's
		// estimator in error feedback itself.
		if _, err := newEstimator(s.Compressor); err != nil {
			return nil, err
		}
		_, format, err := wireOf(s)
		if err != nil {
			return nil, err
		}
		cfg.EC = true
		if format != encoding.FormatPairs64 {
			cfg.ECWire = &format
		}
		cfg.NewCompressor = func() compress.Compressor {
			est, _ := newEstimator(s.Compressor) // name checked above
			return est
		}
	default:
		// One worker per decorated trainer, so one compressor.
		ec, err := newEC(s, in, first)
		if err != nil {
			return nil, err
		}
		cfg.NewCompressor = func() compress.Compressor { return ec }
	}
	return dist.NewTrainer(cfg)
}

type trainRank struct {
	tp      *cluster.TCPTransport
	node    *cluster.Node
	trainer *dist.Trainer
	msgs    int
	bytes   int
}

type trainWorld struct {
	s     spec
	in    instruments
	dim   int
	k     int
	ranks [ranks]*trainRank
}

func buildTrainWorld(s spec, seed int64, inp *trainInputs, in instruments) (w *trainWorld, err error) {
	coll, err := collectiveOf(s)
	if err != nil {
		return nil, err
	}
	wire, _, err := wireOf(s)
	if err != nil {
		return nil, err
	}
	addrs, err := cluster.FreeLoopbackAddrs(ranks)
	if err != nil {
		return nil, err
	}
	w = &trainWorld{s: s, in: in}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for r := 0; r < ranks; r++ {
		rk := &trainRank{}
		w.ranks[r] = rk
		rk.tp, err = cluster.NewTCPTransport(cluster.TCPConfig{Addrs: addrs, Local: []int{r}})
		if err != nil {
			return nil, err
		}
		var tp cluster.Transport = rk.tp
		if in.tr != nil {
			tp = &timedTransport{inner: tp, tr: in.tr}
		}
		rk.node, err = cluster.NewNode(cluster.NodeConfig{
			Workers: ranks, Rank: r, Collective: coll, Format: wire,
			Transport: tp, Telemetry: in.telemetry(),
		})
		if err != nil {
			return nil, err
		}
		var ex dist.GradientExchange = rk.node
		if in.tr != nil {
			ex = &timedExchange{inner: ex, in: in, lane: r}
		}
		rk.trainer, err = newTrainer(s, seed, inp, 1, r, ex, in)
		if err != nil {
			return nil, err
		}
	}
	w.dim = w.ranks[0].trainer.Dim()
	if s.Compressor != "none" {
		w.k = compress.TargetK(w.dim, s.Delta)
	}
	return w, nil
}

func (w *trainWorld) khatTarget() int { return w.k }

func (w *trainWorld) wantTraffic(rec *stepRec) (int, int) {
	msgs, bytes, _ := trafficFor(w.s, w.dim, rec) // spec validated at build
	return msgs, bytes
}

// run drives each rank from a goroutine of its own, exactly the shape of
// one sidco-node process per rank minus the process boundary: a step is
// Trainer.Step (batch, forward/backward, compress, exchange over the
// rank's TCP node, apply) followed by the MeanScalar loss reduce.
func (w *trainWorld) run(first int, recs []stepRec) error {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = w.runRank(r, first, recs); errs[r] != nil {
				// A dead rank must not leave its peer blocked on a receive.
				w.ranks[r].node.Close()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func (w *trainWorld) runRank(r, first int, recs []stepRec) error {
	rk := w.ranks[r]
	tr := w.in.tr
	for i := range recs {
		rec := &recs[i]
		tr.setStep(r, first+i)
		st := tr.begin(r, spStep)
		rec.Start[r] = nowNanos()
		local, err := rk.trainer.Step()
		if err != nil {
			return err
		}
		bar := tr.begin(r, spBarrier)
		global, err := rk.node.MeanScalar(local)
		tr.end(bar)
		if err != nil {
			return err
		}
		rec.End[r] = nowNanos()
		tr.end(st)

		rec.Loss[r] = global
		rec.NNZ[r] = w.dim
		if w.k > 0 {
			rec.NNZ[r] = int(math.Round(rk.trainer.LastRatio * float64(w.k)))
		}
		msgs, bytes := rk.node.Transport().Totals()
		rec.Msgs[r], rec.Bytes[r] = msgs-rk.msgs, bytes-rk.bytes
		rk.msgs, rk.bytes = msgs, bytes
	}
	return nil
}

func (w *trainWorld) close() {
	for _, rk := range w.ranks {
		if rk == nil {
			continue
		}
		if rk.node != nil {
			rk.node.Close()
		}
		if rk.tp != nil {
			rk.tp.Close()
		}
	}
}

// inProcess is the single-process baseline: one two-worker dist.Trainer
// over the shared-memory reducer, from the same seed and inputs, with the
// losses and durations of its first steps.
type inProcess struct {
	trainer *dist.Trainer
	losses  []float64
	stepNS  []float64
}

func runInProcess(s spec, seed int64, inp *trainInputs, steps int) (*inProcess, error) {
	tr, err := newTrainer(s, seed, inp, ranks, 0, nil, instruments{})
	if err != nil {
		return nil, err
	}
	ref := &inProcess{trainer: tr, losses: make([]float64, steps), stepNS: make([]float64, steps)}
	for i := range ref.losses {
		t0 := nowNanos()
		if ref.losses[i], err = tr.Step(); err != nil {
			return nil, err
		}
		ref.stepNS[i] = float64(nowNanos() - t0)
	}
	return ref, nil
}

// ---- grad world ----------------------------------------------------------

// gradInputs is what a grad workload generates from its seed: a pool of
// gradient vectors per worker with the named Table 1 workload's marginal.
type gradInputs struct {
	pool [ranks][][]float64
}

func newGradInputs(s spec, seed int64) (*gradInputs, error) {
	wl, err := dist.WorkloadByName(s.Profile)
	if err != nil {
		return nil, err
	}
	inp := &gradInputs{}
	for r := 0; r < ranks; r++ {
		gen := simgrad.New(simgrad.Config{
			Dim: s.Dim, Family: wl.Grad.Family, Shape: wl.Grad.Shape, Scale: wl.Grad.Scale,
			ScaleDecay: wl.Grad.ScaleDecay, SharpenRate: wl.Grad.SharpenRate,
			OutlierFrac: wl.Grad.OutlierFrac, Seed: seed*ranks + int64(r),
		})
		for i := 0; i < s.Pool; i++ {
			inp.pool[r] = append(inp.pool[r], gen.Next())
		}
	}
	return inp, nil
}

// gradLR scales the aggregate into the weight vector; its value only has
// to keep the weights finite.
const gradLR = 0.01

type gradWorker struct {
	comp   compress.Compressor
	sparse *tensor.Sparse
	g      []float64
	err    error
}

type gradWorld struct {
	s       spec
	in      instruments
	inp     *gradInputs
	engine  *cluster.Engine
	ex      dist.GradientExchange
	workers [ranks]*gradWorker
	ins     []dist.ExchangeInput
	agg     []float64
	ref     []float64
	weights []float64
	k       int
	driver  int
	lossy   bool
	msgs    int
	bytes   int
	wg      sync.WaitGroup
}

// gradLayout is the lane plan of a grad world: workers (also the engine's
// worker nodes), the parameter-server node, then the driver. Only the
// worker lanes adopt the exchange span: the server goroutine starts its
// next receive on its own schedule, so nothing orders a hand-over to it.
func gradLayout() layout {
	return layout{workers: []int{0, 1}, nodes: []int{0, 1, 2}, driver: 3, lanes: 4}
}

func trainLayout() layout {
	return layout{train: true, workers: []int{0, 1}, lanes: 2}
}

func buildGradWorld(s spec, inp *gradInputs, in instruments) (*gradWorld, error) {
	coll, err := collectiveOf(s)
	if err != nil {
		return nil, err
	}
	wire, format, err := wireOf(s)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{Workers: ranks, Collective: coll, Format: wire, Telemetry: in.telemetry()}
	if in.tr != nil {
		inner, err := cluster.NewChanTransport(cluster.NodeCount(ranks, coll))
		if err != nil {
			return nil, err
		}
		cfg.Transport = &timedTransport{inner: inner, tr: in.tr}
	}
	engine, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &gradWorld{
		s: s, in: in, inp: inp, engine: engine, ex: engine,
		ins:     make([]dist.ExchangeInput, ranks),
		agg:     make([]float64, s.Dim),
		ref:     make([]float64, s.Dim),
		weights: make([]float64, s.Dim),
		k:       compress.TargetK(s.Dim, s.Delta),
		driver:  gradLayout().driver,
		lossy:   format != encoding.FormatPairs64,
	}
	if in.tr != nil {
		w.ex = &timedExchange{inner: engine, in: in, lane: w.driver, adopts: gradLayout().workers}
	}
	for r := range w.workers {
		comp, err := newEC(s, in, r)
		if err != nil {
			engine.Close()
			return nil, err
		}
		w.workers[r] = &gradWorker{comp: comp, sparse: &tensor.Sparse{Dim: s.Dim}}
	}
	return w, nil
}

func (w *gradWorld) khatTarget() int { return w.k }

func (w *gradWorld) wantTraffic(rec *stepRec) (int, int) {
	msgs, bytes, _ := trafficFor(w.s, w.s.Dim, rec) // spec validated at build
	return msgs, bytes
}

// compress is the goroutine body of one worker's half-step; a method, so
// starting it allocates no closure.
func (w *gradWorld) compress(r int, parent spanRef) {
	wk := w.workers[r]
	w.in.tr.adopt(r, parent)
	wk.err = wk.comp.CompressInto(wk.sparse, wk.g, w.s.Delta)
	w.wg.Done()
}

// run is the gradient path of a training step without the model: both
// workers compress their next pooled gradient concurrently, the engine
// exchanges the selections, and the mean is applied to a weight vector.
// Checks that cost a pass over d run after the step's clock has stopped.
func (w *gradWorld) run(first int, recs []stepRec) error {
	tr := w.in.tr
	for i := range recs {
		step := first + i
		rec := &recs[i]
		for r, wk := range w.workers {
			wk.g = w.inp.pool[r][step%len(w.inp.pool[r])]
		}
		tr.setStep(w.driver, step)
		st := tr.begin(w.driver, spStep)
		t0 := nowNanos()
		w.wg.Add(ranks)
		for r := range w.workers {
			go w.compress(r, st)
		}
		w.wg.Wait()
		for r, wk := range w.workers {
			if wk.err != nil {
				return fmt.Errorf("worker %d: %w", r, wk.err)
			}
			w.ins[r] = dist.ExchangeInput{Worker: r, Dense: wk.g, Sparse: wk.sparse}
		}
		if err := w.ex.Exchange(step, w.ins, w.agg); err != nil {
			return err
		}
		ap := tr.begin(w.driver, spApply)
		tensor.Axpy(-gradLR, w.agg, w.weights)
		tr.end(ap)
		t1 := nowNanos()
		tr.end(st)

		for r, wk := range w.workers {
			rec.Start[r], rec.End[r] = t0, t1
			rec.NNZ[r] = wk.sparse.NNZ()
		}
		msgs, bytes := w.engine.Transport().Totals()
		rec.Msgs[0], rec.Bytes[0] = msgs-w.msgs, bytes-w.bytes
		w.msgs, w.bytes = msgs, bytes
		if w.s.Collective == "ps" {
			for _, v := range w.agg {
				if v != 0 {
					rec.AggNNZ++
				}
			}
		}
		if step < w.s.RefSteps {
			rec.AggChecked = true
			rec.AggBad = !w.aggregateMatches(step)
		}
	}
	return nil
}

// aggregateMatches compares the engine's aggregate with dist.InProcess on
// the same inputs: bit for bit on the lossless wire, within 1e-5 relative
// L2 where the wire rounds to float32.
func (w *gradWorld) aggregateMatches(step int) bool {
	if err := (dist.InProcess{}).Exchange(step, w.ins, w.ref); err != nil {
		return false
	}
	if !w.lossy {
		for i, v := range w.ref {
			if math.Float64bits(v) != math.Float64bits(w.agg[i]) {
				return false
			}
		}
		return true
	}
	var diff, norm float64
	for i, v := range w.ref {
		d := v - w.agg[i]
		diff += d * d
		norm += v * v
	}
	return diff <= 1e-10*norm
}

func (w *gradWorld) close() { w.engine.Close() }

// ---- replay probes -------------------------------------------------------

// probeResult carries the single-layer timings replayed on captured
// inputs after the run, on an otherwise idle machine. Times are medians in
// nanoseconds; a zero means the layer does not exist in the workload.
type probeResult struct {
	FitNS, SelectNS, FilterNS     float64
	EncodeNS, DecodeNS            float64
	PayloadBytes, PayloadNNZ      float64
	InprocReduceNS                float64
	Par2Speedup                   float64
	CheckpointNS, CheckpointBytes float64
}

const probeReps = 5

// timeMedian runs f probeReps times after one warm-up call and returns the
// median duration in nanoseconds.
func timeMedian(f func()) float64 {
	f()
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := nowNanos()
		f()
		ds[i] = float64(nowNanos() - t0)
	}
	return median(ds)
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// probe replays one captured step through single layers. The checkpoint
// probe saves the in-process baseline's trainer (nil on grad workloads):
// dist.Trainer.Checkpoint refuses a trainer whose optimizer is decorated.
func probe(s spec, ref *inProcess, c *capture) (probeResult, error) {
	var p probeResult
	dim := s.modelDim()
	var trainer *dist.Trainer
	if ref != nil {
		trainer = ref.trainer
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, format, err := wireOf(s)
	if err != nil {
		return p, err
	}

	// What dist.InProcess needs for the same reduction: the cost the
	// cluster layer adds is measured against this.
	ins := make([]dist.ExchangeInput, ranks)
	for r := range ins {
		if c.dense[r] == nil {
			return p, fmt.Errorf("probe: worker %d's exchange input was not captured", r)
		}
		ins[r] = dist.ExchangeInput{Worker: r, Dense: c.dense[r], Sparse: c.sparse[r]}
	}
	agg := make([]float64, dim)
	var reduceErr error
	p.InprocReduceNS = timeMedian(func() {
		if err := (dist.InProcess{}).Exchange(0, ins, agg); err != nil {
			reduceErr = err
		}
	})
	if reduceErr != nil {
		return p, reduceErr
	}

	if trainer != nil {
		var ckErr error
		p.CheckpointNS = timeMedian(func() {
			ck, err := trainer.Checkpoint()
			if err != nil {
				ckErr = err
				return
			}
			var cw countingWriter
			if err := dist.WriteCheckpoint(&cw, ck); err != nil {
				ckErr = err
			}
			p.CheckpointBytes = float64(cw.n)
		})
		if ckErr != nil {
			return p, ckErr
		}
	}
	if s.Compressor == "none" {
		return p, nil
	}

	// Encode and decode the step's payloads, one per worker, in the wire
	// format of the workload.
	bufs := make([][]byte, ranks)
	var encErr error
	p.EncodeNS = timeMedian(func() {
		for r := range bufs {
			if bufs[r], err = encoding.EncodeTo(bufs[r][:0], c.sparse[r], format); err != nil {
				encErr = err
			}
		}
	})
	var dec tensor.Sparse
	p.DecodeNS = timeMedian(func() {
		for r := range bufs {
			if err := encoding.DecodeInto(&dec, bufs[r]); err != nil {
				encErr = err
			}
		}
	})
	if encErr != nil {
		return p, encErr
	}
	for r := range bufs {
		p.PayloadBytes += float64(len(bufs[r])) / ranks
		p.PayloadNNZ += float64(c.sparse[r].NNZ()) / ranks
	}

	g := c.inner[0]
	if g == nil {
		return p, fmt.Errorf("probe: worker 0's estimator input was not captured")
	}
	k := compress.TargetK(len(g), s.Delta)
	switch s.Compressor {
	case "sidco-e":
		var fit stats.Exponential
		p.FitNS = timeMedian(func() { fit = stats.FitExponentialAbs(g) })
		_ = fit
	case "sidco-gp":
		var fit stats.GammaParams
		p.FitNS = timeMedian(func() { fit = stats.FitGammaAbs(g) })
		_ = fit
	}
	var sel tensor.Selector
	var eta float64
	p.SelectNS = timeMedian(func() { eta = sel.AbsKth(g, k) })
	idx, vals := make([]int32, 0, 2*k), make([]float64, 0, 2*k)
	p.FilterNS = timeMedian(func() { idx, vals = tensor.FilterAboveThreshold(g, eta, idx[:0], vals[:0]) })

	// One estimator alone on the machine, fanned out over two cores
	// against one: what compress.SetParallelism buys when nothing contends.
	var parErr error
	timeAt := func(par int) float64 {
		est, err := newEstimator(s.Compressor)
		if err != nil {
			parErr = err
			return 0
		}
		compress.SetParallelism(est, par)
		dst := &tensor.Sparse{Dim: len(g)}
		return timeMedian(func() {
			if err := est.CompressInto(dst, g, s.Delta); err != nil {
				parErr = err
			}
		})
	}
	t1, t2 := timeAt(1), timeAt(2)
	if parErr != nil {
		return p, parErr
	}
	if t2 > 0 {
		p.Par2Speedup = t1 / t2
	}
	return p, nil
}

// repoSpanTotals sums the repo's own telemetry spans by the layer they
// correspond to, for comparison with the decorators' totals over the
// same steps.
func repoSpanTotals(agg *telemetry.Aggregator) map[string]float64 {
	out := map[string]float64{}
	for _, s := range agg.Spans() {
		switch s.Kind {
		case telemetry.SpanCompute, telemetry.SpanCompress, telemetry.SpanExchange, telemetry.SpanApply, telemetry.SpanCollective:
			out[s.Kind.String()] = float64(s.Sum)
		}
	}
	return out
}
