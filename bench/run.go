package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runConfig is one invocation: a workload, a seed and how long to measure.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// steps fixes the number of timed steps (tests); 0 sizes the run from
	// the warm-up's step time so that it measures for about seconds.
	steps int
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Steps     int      `json:"steps"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest hashes what the program computed (losses, selection sizes,
	// traffic) over the warm-up and the window: equal digests mean equal
	// outputs, whatever the timings were.
	Digest string `json:"digest"`
	// Chunks is the timed phase as it was measured: runs of steps with the
	// machine's slowdown over each.
	Chunks  []chunkRec `json:"chunks"`
	Metrics []metric   `json:"metrics"`
}

const (
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 5
	// setupSteps first steps count as set-up: they pay for every lazily
	// built scratch buffer, connection and residual.
	setupSteps = 5
	// calibrateSteps trailing warm-up steps size the timed phase.
	calibrateSteps = 20
	maxTimedSteps  = 20000
	// chunkSeconds of timed steps run between two readings of the machine
	// probe (a reading takes about 8 ms).
	chunkSeconds = 0.5
)

// chunkRec is one run of timed steps [Lo, Hi) between two probe readings.
type chunkRec struct {
	Lo, Hi   int
	Slowdown float64
}

// checker counts correctness checks and remembers the first failures.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func stepDurations(recs []stepRec) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		lo, hi := recs[i].Start[0], recs[i].End[0]
		for r := 1; r < ranks; r++ {
			lo = min(lo, recs[i].Start[r])
			hi = max(hi, recs[i].End[r])
		}
		out[i] = float64(hi - lo)
	}
	return out
}

func sumInts(xs [ranks]int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// runWorkload builds the workload from its seed, warms it up, measures
// it, checks what it computed, and — traced — attributes the step to
// layers.
func runWorkload(cfg runConfig) (*runResult, error) {
	s := cfg.spec
	if s.Warmup < setupSteps {
		return nil, fmt.Errorf("%s: a warm-up of %d steps is shorter than the %d steps a set-up runs", s.Name, s.Warmup, setupSteps)
	}
	res := &runResult{Workload: s.Name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds}
	var ms metricSet
	var chk checker

	// Inputs come from the seed alone; the program only ever sees them.
	var tin *trainInputs
	var gin *gradInputs
	var lay layout
	t0 := nowNanos()
	if s.Kind == "train" {
		tin, lay = newTrainInputs(s, cfg.seed), trainLayout()
	} else {
		var err error
		if gin, err = newGradInputs(s, cfg.seed); err != nil {
			return nil, err
		}
		lay = gradLayout()
	}
	inputsS := float64(nowNanos()-t0) / 1e9
	// What generating the inputs left behind is not the program's memory.
	debug.FreeOSMemory()

	mp := newMachineProbe()
	mp.sample() // first touch of the probe's buffers

	// The single-process baseline: what the losses must be, and what a
	// step costs without a cluster layer.
	var ref *inProcess
	var refLoss []float64
	if s.Kind == "train" {
		var err error
		before := mp.sample()
		if ref, err = runInProcess(s, cfg.seed, tin, s.RefSteps); err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		scale(ref.stepNS, 1/slowdown(before, mp.sample()))
		refLoss = ref.losses
		if !cfg.trace {
			ref.trainer = nil // only the traced run's checkpoint probe needs it
			debug.FreeOSMemory()
		}
	}

	// Set-up, several times over: construct the program and run its first
	// steps. The last instance is the one measured.
	var w world
	var in instruments
	warm := make([]stepRec, s.Warmup)
	setups := make([]float64, setupReps)
	beforeSetups := mp.sample()
	for i := range setups {
		if w != nil {
			w.close()
			w = nil
			clear(warm[:setupSteps])
		}
		// Collect what came before now, outside the timed set-up, so that
		// the peak resident set does not depend on when the collector
		// happens to run.
		runtime.GC()
		t0 := nowNanos()
		if cfg.trace {
			in = newInstruments(lay.lanes)
		}
		var err error
		if s.Kind == "train" {
			w, err = buildTrainWorld(s, cfg.seed, tin, in)
		} else {
			w, err = buildGradWorld(s, gin, in)
		}
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", s.Name, err)
		}
		if err := w.run(0, warm[:setupSteps]); err != nil {
			w.close()
			return nil, fmt.Errorf("first steps: %w", err)
		}
		setups[i] = float64(nowNanos()-t0) / 1e9
	}
	scale(setups, 1/slowdown(beforeSetups, mp.sample()))
	defer w.close()
	if err := w.run(setupSteps, warm[setupSteps:]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	steps := cfg.steps
	if steps == 0 {
		tail := stepDurations(warm[len(warm)-min(calibrateSteps, len(warm)):])
		steps = int(math.Ceil(cfg.seconds * 1e9 / median(tail)))
		steps = min(max(steps, s.Window), maxTimedSteps)
	}
	if steps < s.Window {
		return nil, fmt.Errorf("%d timed steps do not cover the %d-step window", steps, s.Window)
	}
	res.Steps = steps
	recs := make([]stepRec, steps)

	// Timed phase. Untraced it is one segment. Traced it is three: all
	// recording off (the baseline the overheads are measured against),
	// decorators on, decorators plus the repo's own telemetry on.
	type segment struct {
		lo, hi           int
		spans, telemetry bool
	}
	segs := []segment{{0, steps, false, false}}
	if cfg.trace {
		a, c := steps/4, steps/4
		segs = []segment{{0, a, false, false}, {a, steps - c, true, false}, {steps - c, steps, true, true}}
	}
	// resident_mb is the memory the warm program holds: the resident set
	// right after a forced collection, before and after the timed steps,
	// whichever is larger. The kernel's high-water mark (peak_rss_mb) also
	// counts garbage not yet collected and buffers outgrown while the
	// estimator over-selected during warm-up, which differs between seeds
	// by a third.
	debug.FreeOSMemory()
	resident := residentMB()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Each segment runs in chunks of about half a second with a reading of
	// the machine probe on either side. Allocations are counted over the
	// chunks alone: the probe starts goroutines of its own.
	tail := stepDurations(warm[len(warm)-min(calibrateSteps, len(warm)):])
	chunkSteps := max(4, int(chunkSeconds*1e9/median(tail)))
	var c0, c1 runtime.MemStats
	mallocs := uint64(0)
	for _, sg := range segs {
		if cfg.trace {
			in.tr.on.Store(sg.spans)
			if sg.telemetry {
				in.gate.agg.Reset()
			}
			in.gate.on.Store(sg.telemetry)
		}
		before := mp.sample()
		for lo := sg.lo; lo < sg.hi; lo += chunkSteps {
			hi := min(lo+chunkSteps, sg.hi)
			runtime.ReadMemStats(&c0)
			if err := w.run(s.Warmup+lo, recs[lo:hi]); err != nil {
				return nil, fmt.Errorf("timed steps %d..%d: %w", lo, hi, err)
			}
			runtime.ReadMemStats(&c1)
			mallocs += c1.Mallocs - c0.Mallocs
			after := mp.sample()
			res.Chunks = append(res.Chunks, chunkRec{Lo: lo, Hi: hi, Slowdown: slowdown(before, after)})
			before = after
		}
	}
	if cfg.trace {
		in.tr.on.Store(false)
		in.gate.on.Store(false)
	}
	runtime.ReadMemStats(&m1)
	debug.FreeOSMemory()
	resident = max(resident, residentMB())

	// ---- what the program computed ----
	verify(&chk, s, w, warm, recs, refLoss)
	win := recs[:s.Window]
	var winBytes, winMsgs, winWant, winNNZ, winRatio, winLogErr, maxRatio float64
	stepBytes := make([]float64, len(win))
	k := float64(w.khatTarget())
	for i := range win {
		stepBytes[i] = float64(sumInts(win[i].Bytes))
		winBytes += stepBytes[i]
		winMsgs += float64(sumInts(win[i].Msgs))
		_, want := w.wantTraffic(&win[i])
		winWant += float64(want)
		for r := 0; r < ranks; r++ {
			nnz := float64(win[i].NNZ[r])
			winNNZ += nnz / ranks
			if k > 0 {
				ratio := nnz / k
				winRatio += ratio / ranks
				maxRatio = max(maxRatio, ratio)
				winLogErr += math.Abs(math.Log(ratio)) / ranks
			}
		}
	}
	nWin := float64(len(win))
	res.Digest = digest(warm, win)

	// ---- end to end ----
	// Every step's wall-clock is divided by the slowdown of its chunk.
	raw := stepDurations(recs)
	dur := make([]float64, steps)
	slow := make([]float64, 0, len(res.Chunks))
	for _, c := range res.Chunks {
		slow = append(slow, c.Slowdown)
		for i := c.Lo; i < c.Hi; i++ {
			dur[i] = raw[i] / c.Slowdown
		}
	}
	segDur := func(sg segment) []float64 { return dur[sg.lo:sg.hi] }
	base := segDur(segs[0])
	ms.medianOf("step_ms_p50", "ms", base, 1e-6)
	// What the clock read, and what it was divided by.
	ms.medianOf("dist.step_ms_raw_p50", "ms", raw[segs[0].lo:segs[0].hi], 1e-6)
	ms.medianOf("machine.slowdown", "ratio", slow, 1)
	ms.exact("steps_per_s", "1/s", 1e9/mean(base), len(base))
	// The typical step's traffic, as a geometric mean. The arithmetic mean
	// is at the mercy of the few steps per window on which a sidco estimator
	// over-selects many times over (how many a seed draws is luck: it
	// spreads by 20% across seeds), and the median flips between the two
	// stage counts the controller oscillates between (16%); the geometric
	// mean spreads by 1-6%. The arithmetic mean is reported per layer as
	// cluster.bytes_per_step.
	ms.exact("wire_bytes_per_step", "B", geoMean(stepBytes), len(stepBytes))
	ms.exact("resident_mb", "MB", resident, 2)
	ms.exact("peak_rss_mb", "MB", procStatusMB("VmHWM:"), 1)
	ms.medianOf("setup_s", "s", setups, 1)
	ms.exact("inputs_s", "s", inputsS, 1)
	ms.exact("khat_log_err", "nats", winLogErr/nWin, len(win)*ranks)
	allocs := float64(mallocs) / float64(steps)
	ms.exact("allocs_per_step", "count", allocs, steps)

	finalLoss, toTarget := 0.0, 0.0
	if s.Kind == "train" {
		finalLoss, toTarget = lossMetrics(&chk, s, recs, dur)
		ms.exact("final_loss", "nats", finalLoss, lossWindow)
		ms.exact("time_to_target_s", "s", toTarget, 1)
	}

	// ---- per layer ----
	if cfg.trace {
		lm := &ms
		lm.exact("compress.nnz_per_step", "count", winNNZ/nWin, len(win)*ranks)
		lm.exact("compress.khat_over_k", "ratio", winRatio/nWin, len(win)*ranks)
		lm.exact("compress.khat_over_k_max", "ratio", maxRatio, len(win)*ranks)
		lm.exact("compress.khat_log_err", "nats", winLogErr/nWin, len(win)*ranks)
		lm.exact("cluster.msgs_per_step", "count", winMsgs/nWin, len(win))
		lm.exact("cluster.bytes_per_step", "B", winBytes/nWin, len(win))
		lm.exact("netsim.predicted_bytes_per_step", "B", winWant/nWin, len(win))
		lm.exact("train.final_loss", "nats", finalLoss, lossWindow)
		lm.exact("train.time_to_target_s", "s", toTarget, 1)
		lm.exact("runtime.allocs_per_step", "count", allocs, steps)
		lm.exact("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), steps)
		lm.exact("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, steps)
		lm.exact("runtime.peak_rss_mb", "MB", procStatusMB("VmHWM:"), 1)
		if ref != nil {
			lm.medianOf("dist.inproc_step_ms_p50", "ms", ref.stepNS, 1e-6)
		}
		spansOnly, both := segDur(segs[1]), segDur(segs[2])
		lm.exact("bench.trace_overhead_share", "share", median(spansOnly)/median(base)-1, len(spansOnly))
		lm.exact("telemetry.on_overhead_share", "share", median(both)/median(spansOnly)-1, len(both))

		// One more step, untimed, with its inputs copied out; then the
		// ranks are idle and single layers are replayed on the copies.
		in.capture.armed.Store(true)
		extra := make([]stepRec, 1)
		if err := w.run(s.Warmup+steps, extra); err != nil {
			return nil, fmt.Errorf("capture step: %w", err)
		}
		in.capture.armed.Store(false)
		before := mp.sample()
		pr, err := probe(s, ref, in.capture)
		if err != nil {
			return nil, err
		}
		probeMetrics(lm, pr, 1/slowdown(before, mp.sample()))

		// Every goroutine that records spans has ended once the world is
		// closed; only then are the lanes read.
		w.close()
		layers := attribute(in.tr, lay)
		for i := range layers {
			layers[i].scale(1 / stepSlowdown(res.Chunks, layers[i].StepNo-s.Warmup))
		}
		layerMetrics(lm, &chk, s, layers, dur, w.khatTarget() > 0)
		if s.Kind == "train" {
			lo, hi := s.Warmup+segs[2].lo, s.Warmup+segs[2].hi
			lm.exact("telemetry.span_disagreement_share", "share",
				spanDisagreement(repoSpanTotals(in.gate.agg), decoratorTotals(in.tr, lo, hi)), segs[2].hi-segs[2].lo)
		}
		path := filepath.Join(cfg.outDir, s.Name+".trace.jsonl")
		if err := in.tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	res.Attempted = len(warm) + steps + chk.attempted
	res.Failed = chk.failed
	res.Failures = chk.failures
	res.Correct = chk.failed == 0
	ms.exact("fail_ratio", "share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	res.Metrics = ms.list
	return res, nil
}

// verify checks every step's traffic against the netsim closed form, the
// ranks against each other, and the leading steps against the reference.
func verify(chk *checker, s spec, w world, warm, timed []stepRec, refLoss []float64) {
	bitIdentical := s.Compressor != "none"
	for phase, recs := range [][]stepRec{warm, timed} {
		for i := range recs {
			rec := &recs[i]
			step := i + phase*len(warm)
			wantMsgs, wantBytes := w.wantTraffic(rec)
			gotMsgs, gotBytes := sumInts(rec.Msgs), sumInts(rec.Bytes)
			chk.check(gotMsgs == wantMsgs && gotBytes == wantBytes,
				"step %d: sent %d messages / %d bytes, netsim closed form says %d / %d", step, gotMsgs, gotBytes, wantMsgs, wantBytes)
			if rec.AggChecked {
				chk.check(!rec.AggBad, "step %d: aggregate differs from dist.InProcess", step)
			}
			if s.Kind != "train" {
				continue
			}
			agree := true
			for r := 1; r < ranks; r++ {
				agree = agree && math.Float64bits(rec.Loss[r]) == math.Float64bits(rec.Loss[0])
			}
			chk.check(agree, "step %d: ranks disagree on the global loss: %v", step, rec.Loss)
			if step < len(refLoss) {
				ok := math.Float64bits(rec.Loss[0]) == math.Float64bits(refLoss[step])
				if !bitIdentical {
					ok = math.Abs(rec.Loss[0]-refLoss[step]) <= 1e-9*math.Abs(refLoss[step])
				}
				chk.check(ok, "step %d: loss %v, in-process reference %v", step, rec.Loss[0], refLoss[step])
			}
		}
	}
}

// lossMetrics returns the mean global loss over the window's last
// lossWindow steps, and the summed duration of the timed steps up to the
// one on which the lossWindow-step moving mean first reaches the target. The target
// must be reached inside the window, so that it is reached in every run
// or in none, whatever the machine's speed.
func lossMetrics(chk *checker, s spec, recs []stepRec, dur []float64) (finalLoss, toTarget float64) {
	sum := 0.0
	reached := -1
	for i := 0; i < s.Window; i++ {
		sum += recs[i].Loss[0]
		if i >= lossWindow {
			sum -= recs[i-lossWindow].Loss[0]
		}
		if i >= lossWindow-1 && reached < 0 && s.TargetLoss > 0 && sum/lossWindow <= s.TargetLoss {
			reached = i
		}
	}
	finalLoss = sum / lossWindow
	if s.TargetLoss > 0 {
		chk.check(reached >= 0, "moving-mean loss never reached the target %v within %d steps (ended at %v)", s.TargetLoss, s.Window, finalLoss)
	}
	for _, d := range dur[:reached+1] {
		toTarget += d / 1e9
	}
	return finalLoss, toTarget
}

// digest hashes the outputs that must repeat exactly for a seed.
func digest(phases ...[]stepRec) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, recs := range phases {
		for i := range recs {
			for r := 0; r < ranks; r++ {
				put(math.Float64bits(recs[i].Loss[r]))
				put(uint64(recs[i].NNZ[r]))
			}
			put(uint64(sumInts(recs[i].Msgs)))
			put(uint64(sumInts(recs[i].Bytes)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// layerMetrics reduces the per-step attribution to medians and checks
// that the medians reconcile with the median step.
//
// The tail percentiles are taken over every timed step of the traced run
// (timed, in nanoseconds), not only the span-recording segment: tails need
// the samples, and recording moves the median by well under a percent.
func layerMetrics(ms *metricSet, chk *checker, s spec, layers []stepLayers, timed []float64, compressed bool) {
	col := func(f func(stepLayers) float64) []float64 {
		out := make([]float64, len(layers))
		for i, l := range layers {
			out[i] = f(l)
		}
		return out
	}
	add := func(name string, f func(stepLayers) float64) float64 {
		ms.medianOf(name, "ms", col(f), 1e-6)
		return ms.value(name)
	}
	step := col(func(l stepLayers) float64 { return l.Step })
	ms.medianOf("dist.step_ms_p50", "ms", step, 1e-6)
	for _, p := range []float64{95, 99} {
		name := fmt.Sprintf("dist.step_ms_p%.0f", p)
		v, _ := tailPercentile(timed, p) // 0: too few samples beyond it to mean anything
		ms.exact(name, "ms", v*1e-6, len(timed))
	}
	sum := add("data.batch_ms", func(l stepLayers) float64 { return l.Batch })
	sum += add("nn.fwdbwd_ms", func(l stepLayers) float64 { return l.FwdBwd })
	inner := add("compress.inner_ms", func(l stepLayers) float64 { return l.Inner })
	ec := add("compress.ec_ms", func(l stepLayers) float64 { return l.EC })
	sum += inner + ec
	sum += add("cluster.exchange_ms", func(l stepLayers) float64 { return l.Exchange })
	applyName := "nn.apply_ms"
	if s.Kind == "grad" {
		applyName = "tensor.apply_ms"
	}
	sum += add(applyName, func(l stepLayers) float64 { return l.Apply })
	sum += add("cluster.barrier_ms", func(l stepLayers) float64 { return l.Barrier })
	sum += add("dist.step_self_ms", func(l stepLayers) float64 { return l.Self })
	add("cluster.send_ms", func(l stepLayers) float64 { return l.Send })
	add("cluster.recv_wait_ms", func(l stepLayers) float64 { return l.RecvWait })
	add("cluster.sched_self_ms", func(l stepLayers) float64 { return l.SchedSelf })
	add("cluster.rank_skew_ms", func(l stepLayers) float64 { return l.Skew })
	if compressed && inner+ec > 0 {
		ms.exact("compress.input_mb_per_s", "MB/s", float64(s.modelDim())*8/1e6/((inner+ec)/1e3), len(layers))
	}
	residual := residualShare(ms.value("dist.step_ms_p50"), sum)
	ms.exact("dist.layer_sum_residual_share", "share", residual, len(layers))
	chk.check(len(layers) > 0 && residual <= residualLimit,
		"layer medians account for %.4f ms of a %.4f ms median step over %d traced steps (residual %.3f > %.2f)",
		sum, ms.value("dist.step_ms_p50"), len(layers), residual, residualLimit)
}

// residualShare is the share of the step the layers fail to account for.
func residualShare(step, layerSum float64) float64 {
	if step <= 0 {
		return 1
	}
	return math.Abs(step-layerSum) / step
}

// spanDisagreement is the largest relative gap between the repo's own
// telemetry span totals and the decorators' over the same steps, among
// the span kinds both saw.
func spanDisagreement(repo, ours map[string]float64) float64 {
	worst := 0.0
	for kind, mine := range ours {
		theirs, ok := repo[kind]
		if !ok || mine <= 0 {
			continue
		}
		worst = max(worst, math.Abs(theirs-mine)/mine)
	}
	return worst
}

// stepSlowdown is the slowdown of the chunk that timed step i ran in.
func stepSlowdown(chunks []chunkRec, i int) float64 {
	for _, c := range chunks {
		if c.Lo <= i && i < c.Hi {
			return c.Slowdown
		}
	}
	return 1
}

// probeMetrics reports the replayed layers; f takes their times to the
// reference machine's speed.
func probeMetrics(ms *metricSet, p probeResult, f float64) {
	f *= 1e-6
	ms.exact("stats.fit_ms", "ms", p.FitNS*f, probeReps)
	ms.exact("tensor.select_ms", "ms", p.SelectNS*f, probeReps)
	ms.exact("tensor.filter_ms", "ms", p.FilterNS*f, probeReps)
	ms.exact("encoding.encode_ms", "ms", p.EncodeNS*f, probeReps)
	ms.exact("encoding.decode_ms", "ms", p.DecodeNS*f, probeReps)
	ms.exact("encoding.payload_bytes", "B", p.PayloadBytes, ranks)
	if p.PayloadNNZ > 0 {
		ms.exact("encoding.bytes_per_nnz", "B", p.PayloadBytes/p.PayloadNNZ, ranks)
	}
	ms.exact("compress.par2_speedup", "ratio", p.Par2Speedup, probeReps)
	ms.exact("dist.inproc_reduce_ms", "ms", p.InprocReduceNS*f, probeReps)
	ms.exact("dist.checkpoint_save_ms", "ms", p.CheckpointNS*f, probeReps)
	ms.exact("dist.checkpoint_bytes", "B", p.CheckpointBytes, 1)
}

func residentMB() float64 { return procStatusMB("VmRSS:") }

// procStatusMB reads one kB-valued field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
