// Package dist implements the distributed side of the reproduction: a
// goroutine-per-worker synchronous data-parallel training engine with
// pluggable gradient compression and per-worker error feedback, plus the
// Table 1 workload catalog.
//
// The Trainer runs real backpropagation through internal/nn and is
// deterministic for a fixed Seed, including with Workers > 1. Each
// worker compresses on its own goroutine and a compressor never fans out
// further: a worker is one core, which is what a deployment of one rank
// per core wants.
//
// Gradient aggregation is a strategy: the default GradientExchange is
// the in-process shared-memory reducer, and internal/cluster substitutes
// real message-passing collectives over a Transport without the Trainer
// noticing: bit-identically on every collective and wire, each against
// the in-process reducer cluster.Reference picks (worker order for
// all-gather and parameter server, with a lossy wire's rounding;
// cluster.RingOrder for the ring all-reduce).
//
// Under error feedback a worker's backward adds its gradient straight into
// its residual when nothing needs the gradient alone (no clipping) and the
// model's layers can add whole (every parameter a Dense's, listed once):
// the residual is then compressed as it stands. That spares each worker a
// buffer of the model's dimension and the sweep that adds it, with the
// same bits as the route through the buffer, which every other
// configuration keeps (TrainerConfig.EC).
//
// Checkpoint captures a Trainer's deterministic-resume state — weights,
// per-worker error-feedback residuals, and the RNG stream positions
// (reconstructed by replay) — so a restarted process continues
// bit-identically to a run that never stopped, within the documented
// scope: a stateless optimizer, and a compressor whose only cross-step
// state is the EC residual (every registry compressor but dgc, randomk and
// gaussiank). See Trainer.Checkpoint, Trainer.Restore and
// SaveCheckpoint/LoadCheckpoint.
package dist

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TrainerConfig assembles a synchronous data-parallel training run.
type TrainerConfig struct {
	// Workers is the number of data-parallel workers N (>= 1). Workers > 1
	// trains them all in this process, one goroutine each, over the
	// in-process reducer or a cluster.Engine: it is the reference a
	// multi-process deployment (one Workers=1 trainer per rank, see
	// FirstWorker) is held to. cmd/sidco-node -check trains one such
	// trainer with the deployment's settings and the collective's
	// reduction order (checkNodeRun) and compares every global loss with
	// it, bit for bit, on every collective.
	Workers int
	// Model is the shared model replica. Weights are read by all workers
	// during the gradient phase and updated once per step by Opt.
	Model *nn.Sequential
	// Loss scores model outputs against integer targets.
	Loss nn.Loss
	// Opt applies the aggregated gradient once per step, by one of three
	// routes, resolved once from what Exchange and Opt offer:
	//   - sparse: when Opt is an nn.SparseStepper (nn.SGD; nn.Momentum is
	//     not), every worker compresses and Exchange is a SparseExchange,
	//     the exchange's merged sparse mean goes straight to StepSparse and
	//     nothing of the model's dimension is cleared, scattered or swept
	//     after the selection;
	//   - spans: when Exchange is an ApplyExchange (cluster.Node) and the
	//     round is a dense ring, each chunk of the mean goes to StepSpan
	//     where the ring left it, and no gathered aggregate is swept again;
	//   - dense: otherwise the aggregate is gathered whole and goes through
	//     StepFlat.
	// A round the first route declines falls to the next. The weights are
	// the same bit for bit on every route.
	Opt nn.Optimizer
	// Batch draws one worker's batch. It is called concurrently for
	// different workers and must only use the provided per-worker rng for
	// randomness (shared dataset state must be read-only).
	Batch func(worker int, rng *rand.Rand) (*nn.Tensor, []int)
	// NewCompressor constructs one compressor per worker (stateful
	// compressors keep per-worker state). Nil means dense (no
	// compression) training.
	NewCompressor func() compress.Compressor
	// Delta is the target compression ratio k/d handed to the compressor.
	Delta float64
	// EC wraps each worker's compressor with error feedback: the
	// sparsification residual is carried to the next iteration. Requires
	// NewCompressor. With ClipNorm 0 and a model whose every parameter is a
	// Dense layer's, listed once (nn.CanBindAdding), backward adds each
	// worker's gradient straight into its residual (nn.BindGradsAdding,
	// compress.ErrorFeedback.Accumulator) and the residual is compressed
	// as it stands: the worker keeps no gradient buffer of its own and the
	// add costs no sweep, with the same bits. When the compressor's first
	// stage reads only Σ|v| (SIDCo-E, compress.AbsSumCompressor), backward
	// also sums |v| of the residual's whole 4096-element blocks as it adds
	// into them (compress.ErrorFeedback.Partials), and that stage sweeps
	// only the blocks it did not cover. Clipping, which must see the
	// gradient alone, and any other model keep the gradient buffer.
	EC bool
	// ECWire, if non-nil, additionally makes the error-feedback wrapper
	// pre-round every selected value to the given wire format's decoded
	// precision (compress.ErrorFeedback.SetWireFormat), so the
	// quantization residual of a narrow wire is absorbed by EC rather
	// than lost. Requires EC. Point it at the encoding format the
	// deployment's cluster wire actually ships.
	ECWire *encoding.Format
	// ClipNorm rescales each worker's local gradient to at most this L2
	// norm before compression (0 disables clipping). Clipping keeps a
	// gradient buffer per worker even under EC (see EC).
	ClipNorm float64
	// Seed fixes every random stream (batch draws and randomized
	// compressors).
	Seed int64
	// FirstWorker offsets this trainer's worker ids: local worker i
	// behaves as global worker FirstWorker+i — its Batch calls and RNG
	// stream are seeded by the global id. A multi-process deployment
	// (cmd/sidco-node) runs one Workers=1 trainer per process with
	// FirstWorker set to the process rank, so each process reproduces
	// exactly the worker it owns and the union of processes draws the
	// same batches as one in-process trainer with the full worker count.
	// 0 (the default) is the single-process behaviour.
	FirstWorker int
	// Exchange aggregates the workers' gradients each step. Nil selects
	// the in-process shared-memory reducer; internal/cluster plugs real
	// message-passing collectives in here. Each reproduces bit for bit the
	// losses of the in-process exchange cluster.Reference picks for its
	// configuration: over encoding.FormatPairs64 the all-gather and the
	// parameter server those of the default, which adds in worker-index
	// order, over a lossy wire the default with the wire's rounding, and
	// the ring all-reduce those of cluster.RingOrder. An
	// exchange that also implements
	// SparseExchange (the in-process reducer and both cluster ones do) is
	// asked for the merged sparse mean instead of a dense aggregate
	// whenever Opt can apply one, and one that implements ApplyExchange
	// (cluster.Node) to hand a ring's chunks to Opt where they land; see
	// Opt.
	Exchange GradientExchange
	// Telemetry, if non-nil, traces every step's phases: a step span
	// plus per-worker compute and compress spans, trainer-level
	// exchange and apply spans (on the spans route one apply span per
	// chunk, inside the exchange span), a steps counter and the apply's
	// element count (N*k-hat when the sparse mean was applied, d on the
	// other routes; all node-attributed to FirstWorker) and, beside each
	// compress span, the worker's selected and target element counts
	// (k-hat and k) with a count of the steps whose estimate was
	// corrected, for compressors that report it
	// (compress.SelectionReporter). A nil tracer is free: the
	// instrumentation calls are no-ops and the steady-state step stays
	// allocation-free.
	Telemetry *telemetry.Tracer
	// OnGradient, if set, observes worker 0's gradient each iteration
	// exactly as its compressor sees it: after clipping and, under EC,
	// with the carried residual added (the harness's gradient recorder
	// hooks in here so the fitting studies analyse the same vectors the
	// compressors saw). Where backward adds into the residual (see EC) the
	// slice is the residual itself, which then holds that sum. The slice is
	// reused between iterations; observers must copy and must not modify
	// it.
	OnGradient func(iter int, flat []float64)
}

// worker is the per-goroutine state of one data-parallel worker.
type worker struct {
	id     int
	rng    *rand.Rand
	comp   compress.Compressor        // nil = dense path
	ec     *compress.ErrorFeedback    // comp when it is error feedback, else nil
	report compress.SelectionReporter // comp's account of its selections, nil when it keeps none
	flat   []float64                  // local gradient buffer, nil where backward adds into ec's residual; the model's Param.G alias it during and after this worker's pass
	sums   *stats.AbsPartials         // ec's Σ|v| partials, which backward fills where it adds into the residual and the compressor takes the sum; else nil
	sparse *tensor.Sparse             // reused compressed-selection storage
	loss   float64
	ratio  float64
	err    error
}

// Trainer executes synchronous data-parallel steps: each worker draws a
// batch, computes a local gradient, optionally compresses it, the sparse
// contributions are aggregated, and a single optimizer step is applied.
//
// Workers run concurrently. The forward/backward pass itself is
// serialized through a mutex because internal/nn layers cache one
// in-flight batch, but each worker's gradient depends only on its own
// batch and the step-start weights, so scheduling order cannot change
// any result: batch draws use per-worker RNG streams, and losses and
// gradients are reduced in worker-index order. Output is therefore
// bit-identical across runs for a fixed Seed.
type Trainer struct {
	// LastRatio is the mean achieved k-hat/k across workers in the most
	// recent Step (1 for dense training).
	LastRatio float64

	cfg      TrainerConfig
	params   []*nn.Param
	dim      int
	k        int // target non-zeros per worker, 0 when dense
	workers  []*worker
	modelMu  sync.Mutex
	ins      []ExchangeInput
	exchange GradientExchange
	agg      []float64 // the dense aggregate, allocated by the first round that needs it
	// The sparse route, resolved once: both nil unless the exchange can hand
	// back a merged sparse mean, the optimizer can apply one and every
	// worker compresses. mean is that round's vector.
	sparseEx  SparseExchange
	sparseOpt nn.SparseStepper
	mean      tensor.Sparse
	// The spans route: applyEx is nil unless the exchange can hand the mean
	// over chunk by chunk; apply is applySpan, bound once so a round passes
	// it without allocating.
	applyEx ApplyExchange
	apply   func(off int, mean []float64)
	// intoResidual is the error-feedback route, resolved once: every
	// worker compresses through a compress.ErrorFeedback and its backward
	// adds the gradient into that residual (see TrainerConfig.EC).
	intoResidual bool
	tapBuf       []float64
	iter         int
	wg           sync.WaitGroup // reused per-step barrier
}

// NewTrainer validates the configuration and allocates per-worker state.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: Workers = %d, need >= 1", cfg.Workers)
	}
	if cfg.FirstWorker < 0 {
		return nil, fmt.Errorf("dist: FirstWorker = %d, need >= 0", cfg.FirstWorker)
	}
	if cfg.Model == nil || cfg.Loss == nil || cfg.Opt == nil || cfg.Batch == nil {
		return nil, fmt.Errorf("dist: Model, Loss, Opt and Batch are all required")
	}
	params := cfg.Model.Params()
	dim := nn.ParamCount(params)
	if dim == 0 {
		return nil, fmt.Errorf("dist: model has no trainable parameters")
	}
	compressed := cfg.NewCompressor != nil
	if compressed && (cfg.Delta <= 0 || cfg.Delta > 1) {
		return nil, fmt.Errorf("dist: Delta = %v outside (0, 1]", cfg.Delta)
	}
	// A lossy wire whose rounding nobody feeds back, or feedback with
	// nothing to feed back from, would train — differently from what the
	// configuration says.
	if cfg.EC && !compressed {
		return nil, fmt.Errorf("dist: EC is set without NewCompressor: error feedback wraps a compressor and there is none")
	}
	if cfg.ECWire != nil && !cfg.EC {
		return nil, fmt.Errorf("dist: ECWire is set without EC: the wire's rounding error is absorbed by the error-feedback wrapper, which EC enables")
	}
	t := &Trainer{
		LastRatio: 1,
		cfg:       cfg,
		params:    params,
		dim:       dim,
		workers:   make([]*worker, cfg.Workers),
		ins:       make([]ExchangeInput, cfg.Workers),
	}
	if compressed {
		t.k = compress.TargetK(dim, cfg.Delta)
	}
	t.intoResidual = cfg.ClipNorm == 0 && nn.CanBindAdding(params)
	for w := range t.workers {
		var comp compress.Compressor
		if compressed {
			comp = cfg.NewCompressor()
			if comp != nil && cfg.EC {
				ec := compress.NewErrorFeedback(comp)
				if cfg.ECWire != nil {
					ec.SetWireFormat(*cfg.ECWire)
				}
				comp = ec
			}
		}
		ec, _ := comp.(*compress.ErrorFeedback)
		report, _ := comp.(compress.SelectionReporter)
		t.workers[w] = &worker{
			id:     cfg.FirstWorker + w,
			rng:    rand.New(rand.NewSource(workerSeed(cfg.Seed, cfg.FirstWorker+w))),
			comp:   comp,
			ec:     ec,
			report: report,
			sparse: &tensor.Sparse{Dim: dim},
		}
		t.intoResidual = t.intoResidual && ec != nil
	}
	for _, w := range t.workers {
		if t.intoResidual {
			w.sums = w.ec.Partials()
		} else {
			w.flat = make([]float64, dim)
		}
	}
	if cfg.Exchange == nil {
		cfg.Exchange = InProcess{}
	}
	t.apply = t.applySpan
	t.useExchange(cfg.Exchange)
	return t, nil
}

// useExchange installs the exchange and resolves the step's routes once:
// the spans route whenever the exchange offers it, the sparse one only when
// the exchange can hand back a merged sparse mean, the optimizer can apply
// one (nn.SparseStepper), and every worker compresses. Anything that hides
// an optional interface keeps the dense route.
func (t *Trainer) useExchange(ex GradientExchange) {
	t.exchange, t.sparseEx, t.sparseOpt = ex, nil, nil
	t.applyEx, _ = ex.(ApplyExchange)
	for _, w := range t.workers {
		if w.comp == nil {
			return
		}
	}
	sx, okX := ex.(SparseExchange)
	so, okO := t.cfg.Opt.(nn.SparseStepper)
	if okX && okO {
		t.sparseEx, t.sparseOpt = sx, so
	}
}

// workerSeed derives an independent, deterministic seed per worker from
// the trainer seed (splitmix64 finalizer: nearby base seeds still give
// uncorrelated worker streams).
func workerSeed(seed int64, w int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(w+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Dim returns the model parameter count d.
func (t *Trainer) Dim() int { return t.dim }

// Params exposes the model's trainable parameters: the weights
// sidco-node digests and the bit-identity and resume tests compare. After
// a Step each parameter's G aliases the flat gradient buffer of the last
// worker to run its pass or, where backward adds into the residual (see
// TrainerConfig.EC), that worker's EC residual; clipping, compression or
// a ring reducing in the buffer have rewritten either since: read
// gradients through OnGradient, not through G.
func (t *Trainer) Params() []*nn.Param { return t.params }

// localGradient runs one worker's half-step: batch draw, forward,
// backward, clip, and compression. Only the model pass holds the mutex.
//
//sidco:hotpath
func (t *Trainer) localGradient(w *worker) error {
	// The model pass includes lock wait: with several workers the mutex
	// serialises the passes, and that contention is part of what the
	// compute span is for.
	cs := t.cfg.Telemetry.Begin(telemetry.SpanCompute, w.id, -1, int64(t.iter))
	x, targets := t.cfg.Batch(w.id, w.rng)

	// Backward lands straight in this worker's flat buffer — or, on the
	// error-feedback route, is added into its residual: the parameters' G
	// are pointed at its spans for the pass, so there is no copy out
	// afterwards, and BindGrads clears only the spans whose layer
	// accumulates — a Dense writes its ∂W once. Nobody reads the gradient
	// with respect to the batch, so the first layer does not compute it.
	grad := w.flat
	if t.intoResidual {
		var err error
		if grad, err = w.ec.Accumulator(t.dim); err != nil {
			cs.End()
			return fmt.Errorf("dist: worker %d: %w", w.id, err) //sidco:alloc residual-misuse error path, not steady state
		}
	}
	t.modelMu.Lock()
	if t.intoResidual {
		nn.BindGradsAdding(t.params, grad, w.sums)
	} else {
		nn.BindGrads(t.params, grad)
	}
	y := t.cfg.Model.Forward(x)
	w.loss = t.cfg.Loss.Forward(y, targets)
	t.cfg.Model.BackwardParams(t.cfg.Loss.Backward())
	t.modelMu.Unlock()

	if t.cfg.ClipNorm > 0 {
		nn.ClipFlatNorm(grad, t.cfg.ClipNorm)
	}
	cs.End()
	if w.id == 0 {
		t.tapGradient(w, grad)
	}
	if w.comp == nil {
		w.ratio = 1
		return nil
	}
	// The selection lands in the worker's reused sparse scratch: the
	// exchange consumes it synchronously inside Step, so by the next
	// iteration no one holds a reference and the storage can be recycled.
	ks := t.cfg.Telemetry.Begin(telemetry.SpanCompress, w.id, -1, int64(t.iter))
	var err error
	if t.intoResidual {
		err = w.ec.CompressAccumulated(w.sparse, t.cfg.Delta)
	} else {
		err = w.comp.CompressInto(w.sparse, grad, t.cfg.Delta)
	}
	ks.End()
	if err != nil {
		return fmt.Errorf("dist: worker %d: %w", w.id, err) //sidco:alloc compressor-failure error path, not steady state
	}
	w.ratio = float64(w.sparse.NNZ()) / float64(t.k)
	t.cfg.Telemetry.Count(telemetry.CounterSelectedElems, w.id, -1, int64(w.sparse.NNZ()))
	t.cfg.Telemetry.Count(telemetry.CounterTargetElems, w.id, -1, int64(t.k))
	if w.report != nil {
		switch w.report.LastSelection().Correction {
		case compress.CorrectionList:
			t.cfg.Telemetry.Count(telemetry.CounterSelectListCorrections, w.id, -1, 1)
		case compress.CorrectionSweep:
			t.cfg.Telemetry.Count(telemetry.CounterSelectSweepFallbacks, w.id, -1, 1)
		}
	}
	return nil
}

// tapGradient feeds OnGradient the vector worker w's compressor is
// about to see: the clipped local gradient grad, plus the error-feedback
// residual when EC is carrying one — grad itself where backward added into
// the residual. Only worker 0 taps, so observers need not be
// concurrency-safe.
func (t *Trainer) tapGradient(w *worker, grad []float64) {
	if t.cfg.OnGradient == nil {
		return
	}
	tap := grad
	if w.ec != nil && !t.intoResidual {
		if res := w.ec.Residual(); res != nil {
			if t.tapBuf == nil {
				t.tapBuf = make([]float64, t.dim)
			}
			copy(t.tapBuf, grad)
			tensor.Add(res, t.tapBuf)
			tap = t.tapBuf
		}
	}
	t.cfg.OnGradient(t.iter, tap)
}

// stepWorker is the goroutine body of one worker's half-step. It is a
// plain method (not a closure) so spawning it each step allocates
// nothing.
//
//sidco:hotpath
func (t *Trainer) stepWorker(w *worker) {
	w.err = t.localGradient(w)
	t.wg.Done()
}

// Step runs one synchronous iteration and returns the mean training loss
// across workers.
//
//sidco:hotpath
func (t *Trainer) Step() (float64, error) {
	ss := t.cfg.Telemetry.Begin(telemetry.SpanStep, t.cfg.FirstWorker, -1, int64(t.iter))
	if len(t.workers) == 1 {
		// Single-worker training needs no barrier; running inline keeps
		// the steady-state step allocation-free.
		w := t.workers[0]
		w.err = t.localGradient(w)
	} else {
		t.wg.Add(len(t.workers))
		for _, w := range t.workers {
			go t.stepWorker(w) //sidco:alloc one spawn-bookkeeping object per worker, pinned by the Step alloc budget test
		}
		t.wg.Wait()
	}

	// All reductions below iterate workers in index order so the
	// floating-point results are independent of goroutine scheduling.
	for _, w := range t.workers {
		if w.err != nil {
			return 0, w.err
		}
	}
	loss, ratio := 0.0, 0.0
	for i, w := range t.workers {
		var sp *tensor.Sparse
		if w.comp != nil {
			sp = w.sparse
		}
		t.ins[i] = ExchangeInput{Worker: w.id, Dense: w.flat, Sparse: sp}
		loss += w.loss
		ratio += w.ratio
	}
	xs := t.cfg.Telemetry.Begin(telemetry.SpanExchange, t.cfg.FirstWorker, -1, int64(t.iter))
	rt, err := t.exchangeRound()
	xs.End()
	if err != nil {
		return 0, fmt.Errorf("dist: exchange at step %d: %w", t.iter, err) //sidco:alloc exchange-failure error path, not steady state
	}
	inv := 1 / float64(len(t.workers))
	loss *= inv
	t.LastRatio = ratio * inv

	// On the spans route the round applied the mean itself, span by span,
	// each traced on its own (applySpan).
	applied := t.dim
	if rt != routeSpans {
		as := t.cfg.Telemetry.Begin(telemetry.SpanApply, t.cfg.FirstWorker, -1, int64(t.iter))
		if rt == routeSparse {
			t.sparseOpt.StepSparse(t.params, t.mean.Idx, t.mean.Vals)
			applied = t.mean.NNZ()
		} else {
			t.cfg.Opt.StepFlat(t.params, t.agg)
		}
		as.End()
	}
	t.cfg.Telemetry.Count(telemetry.CounterApplyElems, t.cfg.FirstWorker, -1, int64(applied))
	t.iter++
	t.cfg.Telemetry.Count(telemetry.CounterSteps, t.cfg.FirstWorker, -1, 1)
	ss.End()
	return loss, nil
}

// route names where a round left the mean for the optimizer.
type route uint8

const (
	routeDense  route = iota // gathered whole into t.agg, for StepFlat
	routeSparse              // merged into t.mean, for StepSparse
	routeSpans               // already applied, chunk by chunk (applySpan)
)

// exchangeRound aggregates t.ins by the first open route whose exchange
// takes the round: sparse, then spans, then dense.
//
//sidco:hotpath
func (t *Trainer) exchangeRound() (route, error) {
	if t.sparseEx != nil {
		if sparse, err := t.sparseEx.ExchangeSparse(t.iter, t.ins, &t.mean); sparse || err != nil {
			return routeSparse, err
		}
	}
	if t.applyEx != nil {
		// The ring reduces in the worker's own gradient when that is the
		// round's one input: the next backward rewrites it anyway.
		agg := t.agg
		if len(t.ins) == 1 && t.ins[0].Sparse == nil {
			agg = t.ins[0].Dense
		} else if agg == nil {
			t.agg = make([]float64, t.dim) //sidco:alloc the first round that needs it only
			agg = t.agg
		}
		if applied, err := t.applyEx.ExchangeApply(t.iter, t.ins, agg, t.apply); applied || err != nil {
			return routeSpans, err
		}
	}
	if t.agg == nil {
		t.agg = make([]float64, t.dim) //sidco:alloc the first dense round only
	}
	return routeDense, t.exchange.Exchange(t.iter, t.ins, t.agg)
}

// applySpan is the spans route's hand-over of one chunk of the round's mean
// to the optimizer, traced as an apply span of its own.
//
//sidco:hotpath
func (t *Trainer) applySpan(off int, mean []float64) {
	as := t.cfg.Telemetry.Begin(telemetry.SpanApply, t.cfg.FirstWorker, -1, int64(t.iter))
	t.cfg.Opt.StepSpan(t.params, off, mean)
	as.End()
}

// Run executes iters steps and returns the per-iteration mean losses and
// mean achieved compression ratios (k-hat/k; all ones for dense runs).
// Both result slices are preallocated to their final length up front, so
// the run's only per-step work is the steps themselves.
func (t *Trainer) Run(iters int) ([]float64, []float64, error) {
	if iters < 0 {
		iters = 0
	}
	losses := make([]float64, iters)
	ratios := make([]float64, iters)
	for i := 0; i < iters; i++ {
		loss, err := t.Step()
		if err != nil {
			return nil, nil, err
		}
		losses[i] = loss
		ratios[i] = t.LastRatio
	}
	return losses, ratios, nil
}
