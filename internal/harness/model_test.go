package harness

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/netsim"
)

func latency(t *testing.T, p device, name string, d int, delta float64, stages int) float64 {
	t.Helper()
	l, err := p.latency(name, d, delta, stages)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func workload(t *testing.T, name string) dist.Workload {
	t.Helper()
	wl, err := dist.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func runModel(t *testing.T, m iterModel, wl dist.Workload, name string, delta float64, opt Options) *iterResult {
	t.Helper()
	res, err := m.run(wl, name, delta, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// VGG16's dimension, the paper's Figure 1 micro-benchmark subject.
const vgg16Dim = 14982987

func TestGPUOrderingMatchesFigure1a(t *testing.T) {
	topk := latency(t, gpu, "topk", vgg16Dim, 0.001, 1)
	dgc := latency(t, gpu, "dgc", vgg16Dim, 0.001, 1)
	sidco := latency(t, gpu, "sidco-e", vgg16Dim, 0.001, 3)
	redsync := latency(t, gpu, "redsync", vgg16Dim, 0.001, 1)
	gauss := latency(t, gpu, "gaussiank", vgg16Dim, 0.001, 1)

	// On GPU everything beats Top-k, and threshold-estimation methods
	// beat DGC (Figure 1a).
	for name, l := range map[string]float64{"dgc": dgc, "sidco": sidco, "redsync": redsync, "gauss": gauss} {
		if l >= topk {
			t.Errorf("GPU: %s (%.3gs) not faster than topk (%.3gs)", name, l, topk)
		}
	}
	if sidco >= dgc {
		t.Errorf("GPU: sidco (%.3gs) not faster than dgc (%.3gs)", sidco, dgc)
	}
	// Paper: threshold methods are ~50-60x over Top-k, DGC ~15-40x.
	if sp := topk / sidco; sp < 20 || sp > 120 {
		t.Errorf("GPU sidco speedup over topk = %.1fx, want within [20, 120]", sp)
	}
	if sp := topk / dgc; sp < 5 || sp > 60 {
		t.Errorf("GPU dgc speedup over topk = %.1fx, want within [5, 60]", sp)
	}
}

func TestCPUOrderingMatchesFigure1b(t *testing.T) {
	topk := latency(t, cpu, "topk", vgg16Dim, 0.001, 1)
	dgc := latency(t, cpu, "dgc", vgg16Dim, 0.001, 1)
	sidco := latency(t, cpu, "sidco-e", vgg16Dim, 0.001, 3)

	// Figure 1b: DGC is *slower* than Top-k on CPU (random sampling);
	// threshold methods remain faster.
	if dgc <= topk {
		t.Errorf("CPU: dgc (%.3gs) should be slower than topk (%.3gs)", dgc, topk)
	}
	if sidco >= topk {
		t.Errorf("CPU: sidco (%.3gs) should be faster than topk (%.3gs)", sidco, topk)
	}
	if sp := topk / sidco; sp < 1.5 || sp > 6 {
		t.Errorf("CPU sidco speedup = %.2fx, want within [1.5, 6]", sp)
	}
}

func TestSIDCoStageCostGrowsSlowly(t *testing.T) {
	one := latency(t, gpu, "sidco-e", vgg16Dim, 0.001, 1)
	four := latency(t, gpu, "sidco-e", vgg16Dim, 0.001, 4)
	if four <= one {
		t.Errorf("more stages should cost more: %v vs %v", four, one)
	}
	// Stage ratio 0.25 makes later stages geometrically cheap: 4 stages
	// must cost well under 2x one stage.
	if four > 2*one {
		t.Errorf("stage cost explosion: 1 stage %.3g, 4 stages %.3g", one, four)
	}
}

func TestVariantCostDifferences(t *testing.T) {
	e := latency(t, gpu, "sidco-e", vgg16Dim, 0.01, 2)
	gp := latency(t, gpu, "sidco-gp", vgg16Dim, 0.01, 2)
	if gp <= e {
		t.Errorf("GP variant needs an extra moment pass: e=%v gp=%v", e, gp)
	}
}

// TestUnknownCompressorErrors: a name with no latency model fails the
// model instead of pricing it at zero.
func TestUnknownCompressorErrors(t *testing.T) {
	if _, err := gpu.latency("nope", 1000, 0.1, 1); err == nil {
		t.Error("unknown compressor should error")
	}
	wl := workload(t, "resnet20-cifar10")
	opt := Options{Iters: 2, SimScale: 100, Seed: 1}
	if _, err := paperCluster.run(wl, "bogus", 0.01, opt); err == nil {
		t.Error("an unknown compressor should fail the run")
	}
	// Every registry name is priced: sidco-cluster's topology section
	// takes any of them from its -compressor flag.
	for _, name := range append([]string{"none", "randomk"}, CompressorNames...) {
		if _, err := paperCluster.run(wl, name, 0.01, opt); err != nil {
			t.Errorf("run(%q): %v", name, err)
		}
	}
}

func TestNoneIsFree(t *testing.T) {
	if l := latency(t, gpu, "none", vgg16Dim, 0.001, 1); l != 0 {
		t.Errorf("none latency = %v", l)
	}
}

func TestLatencyMonotoneInDimension(t *testing.T) {
	for _, name := range []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e"} {
		for _, p := range []device{gpu, cpu} {
			small := latency(t, p, name, 260000, 0.01, 2)
			big := latency(t, p, name, 26000000, 0.01, 2)
			if big <= small {
				t.Errorf("%s on %s: latency not monotone in d", name, p.name)
			}
		}
	}
}

// TestSimulatedSpeedupOnCommBoundWorkload checks the paper's core claim
// end to end: on a communication-bound workload (LSTM-PTB spends 94% of
// a dense iteration communicating), aggressive sparsification at delta =
// 0.001 must beat the no-compression baseline.
func TestSimulatedSpeedupOnCommBoundWorkload(t *testing.T) {
	wl := workload(t, "lstm-ptb")
	opt := Options{Iters: 20, SimScale: 1000, Seed: 1}
	none := runModel(t, paperCluster, wl, "none", 0.001, opt)
	for _, name := range []string{"topk", "sidco-e"} {
		res := runModel(t, paperCluster, wl, name, 0.001, opt)
		if res.comm >= none.comm {
			t.Errorf("%s: sparse comm %v not cheaper than dense %v", name, res.comm, none.comm)
		}
		// Exact Top-k pays a full GPU sort at d = 66M, which can eat the
		// communication win — the paper's motivating observation. The
		// linear-time estimator must come out ahead overall.
		if name == "sidco-e" {
			if s := res.speedup(none); s <= 1 {
				t.Errorf("%s: speedup %v at delta=0.001 on comm-bound workload, want > 1", name, s)
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	wl := workload(t, "resnet20-cifar10")
	opt := Options{Iters: 15, SimScale: 100, Seed: 7}
	a := runModel(t, paperCluster, wl, "sidco-e", 0.01, opt)
	b := runModel(t, paperCluster, wl, "sidco-e", 0.01, opt)
	if a.meanRatio != b.meanRatio || a.iter != b.iter {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.ratios {
		if a.ratios[i] != b.ratios[i] {
			t.Fatalf("ratio series diverges at %d", i)
		}
	}
}

func TestIterResultAccounting(t *testing.T) {
	res := runModel(t, paperCluster, workload(t, "vgg16-cifar10"), "topk", 0.01, Options{Iters: 12, SimScale: 1000, Seed: 3})
	if len(res.ratios) != 12 {
		t.Errorf("ratios has %d entries, want 12", len(res.ratios))
	}
	if sum := res.compute + res.compress + res.comm; math.Abs(sum-res.iter)/res.iter > 1e-9 {
		t.Errorf("iter %v != compute+compress+comm %v", res.iter, sum)
	}
	if res.throughput <= 0 {
		t.Errorf("throughput = %v", res.throughput)
	}
	if res.meanRatio != 1 || res.geoMeanRatio != 1 {
		t.Errorf("exact Top-k ratios should be 1: mean %v geo %v", res.meanRatio, res.geoMeanRatio)
	}
}

// TestSimulateCollectiveKnob checks that the model prices the chosen
// topology: the parameter server's central bottleneck must cost more
// than the all-gather on the same sparse run, and explicit choices must
// reproduce the Auto pairing.
func TestSimulateCollectiveKnob(t *testing.T) {
	wl := workload(t, "vgg16-cifar10")
	run := func(coll netsim.Collective, name string) *iterResult {
		m := paperCluster
		m.coll = coll
		return runModel(t, m, wl, name, 0.01, Options{Iters: 10, SimScale: 100, Seed: 3})
	}
	auto := run(netsim.CollectiveAuto, "topk")
	ag := run(netsim.CollectiveAllGather, "topk")
	ps := run(netsim.CollectivePS, "topk")
	if auto.comm != ag.comm {
		t.Errorf("auto sparse comm %v != all-gather %v", auto.comm, ag.comm)
	}
	if ps.comm <= ag.comm {
		t.Errorf("PS comm %v should exceed all-gather %v (central dense pull)", ps.comm, ag.comm)
	}
	// Dense runs: auto and ring agree.
	autoDense := run(netsim.CollectiveAuto, "none")
	ringDense := run(netsim.CollectiveRing, "none")
	if autoDense.comm != ringDense.comm {
		t.Errorf("auto dense comm %v != ring %v", autoDense.comm, ringDense.comm)
	}
}

// TestComputeTimeIsFabricInvariant pins compute to the reference
// cluster's overhead calibration: swapping the fabric must change only
// the communication stage, not the modelled forward+backward time.
func TestComputeTimeIsFabricInvariant(t *testing.T) {
	wl := workload(t, "resnet50-imagenet")
	run := func(net netsim.Network) *iterResult {
		return runModel(t, iterModel{net: net, dev: gpu}, wl, "topk", 0.01, Options{Iters: 5, SimScale: 1000, Seed: 1})
	}
	slow := run(netsim.Cluster25GbE(8))
	fast := run(netsim.NVLinkNode(8))
	if slow.compute != fast.compute {
		t.Errorf("compute time moved with the fabric: %v vs %v", slow.compute, fast.compute)
	}
	if fast.comm >= slow.comm {
		t.Errorf("NVLink comm %v not cheaper than 25GbE %v", fast.comm, slow.comm)
	}
}
