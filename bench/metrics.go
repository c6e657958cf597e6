package main

// metricDef declares one metric of BENCHMARK.json. The lists below are
// the benchmark's contract: BENCHMARK.json repeats them (a test keeps the
// two in step), and a run prints exactly these, by these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are measured with tracing off, on every workload, and are
// never zero. The end-to-end quantities that only some workloads have
// (time to target loss, final loss, k-hat error) or that are zero when
// all is well (allocations per step, failure ratio) are printed by every
// untraced run too, and reported as per-layer metrics from the traced run.
//
// Every time is divided by the machine's slowdown while it was measured
// (machine.go). The bounds are what the two-core shared VM the benchmark
// was built on can then resolve: ten runs of a workload on ten seeds
// spread (interquartile range over median) by 1-6% after the division
// (5-10% before), and the same binary on the same seed still drifts by up
// to a third over tens of minutes on the memory-bound workloads in a way
// the probe does not see. The byte and memory metrics are exact for a seed
// and spread across seeds by up to 6% and 13%.
var endToEnd = []metricDef{
	{"step_ms_p50", "ms", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"wire_bytes_per_step", "B", "lower", 0.20},
	{"resident_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the separate traced run. A layer a workload does
// not have reports 0.
var perLayer = []metricDef{
	{Name: "data.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fwdbwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "compress.inner_ms", Unit: "ms", Better: "lower"},
	{Name: "compress.ec_ms", Unit: "ms", Better: "lower"},
	{Name: "compress.input_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.nnz_per_step", Unit: "count", Better: "lower"},
	{Name: "compress.khat_over_k", Unit: "ratio", Better: "lower"},
	{Name: "compress.khat_over_k_max", Unit: "ratio", Better: "lower"},
	{Name: "compress.khat_log_err", Unit: "nats", Better: "lower"},
	{Name: "compress.par2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "stats.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.select_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "encoding.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "encoding.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "encoding.payload_bytes", Unit: "B", Better: "lower"},
	{Name: "encoding.bytes_per_nnz", Unit: "B", Better: "lower"},
	{Name: "cluster.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.send_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.recv_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.sched_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.barrier_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rank_skew_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "netsim.predicted_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "dist.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.step_ms_raw_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.step_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "dist.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "dist.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.layer_sum_residual_share", Unit: "share", Better: "lower"},
	{Name: "dist.inproc_reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.inproc_step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "train.time_to_target_s", Unit: "s", Better: "lower"},
	{Name: "train.final_loss", Unit: "nats", Better: "lower"},
	{Name: "telemetry.on_overhead_share", Unit: "share", Better: "lower"},
	{Name: "telemetry.span_disagreement_share", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "runtime.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "machine.slowdown", Unit: "ratio", Better: "lower"},
}

// residualLimit is the largest share of the median step the layer
// medians may fail to account for before the traced run fails.
const residualLimit = 0.05

// metric is one reported value: what was measured, from how many
// samples, and how far those samples spread (quartiles; equal to the
// value for exact counts and single measurements).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// metricSet collects a run's metrics in the order they were added.
type metricSet struct {
	list  []metric
	index map[string]int
}

func (m *metricSet) add(mt metric) {
	if m.index == nil {
		m.index = map[string]int{}
	}
	if i, ok := m.index[mt.Name]; ok {
		m.list[i] = mt
		return
	}
	m.index[mt.Name] = len(m.list)
	m.list = append(m.list, mt)
}

// exact records a count, or a single measurement with nothing to spread.
func (m *metricSet) exact(name, unit string, v float64, n int) {
	m.add(metric{Name: name, Value: v, Unit: unit, N: n, Q1: v, Q3: v})
}

// medianOf records the median of samples scaled by scale, with quartiles.
func (m *metricSet) medianOf(name, unit string, samples []float64, scale float64) {
	q1, _, q3 := quartiles(samples)
	m.add(metric{Name: name, Value: median(samples) * scale, Unit: unit, N: len(samples), Q1: q1 * scale, Q3: q3 * scale})
}

// value is the named metric's value, 0 if it was not recorded.
func (m *metricSet) value(name string) float64 {
	if i, ok := m.index[name]; ok {
		return m.list[i].Value
	}
	return 0
}
