package harness

import (
	"bytes"
	"strings"
	"testing"
)

// fastOpt keeps harness tests quick; the cmd binaries use fuller settings.
var fastOpt = Options{Iters: 15, SimScale: 1000, Seed: 1}

func TestRegistry(t *testing.T) {
	for _, name := range append([]string{"none", "randomk"}, CompressorNames...) {
		c, err := NewCompressor(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "none" && c.Name() != name {
			t.Errorf("registry name mismatch: %q -> %q", name, c.Name())
		}
	}
	if _, err := NewCompressor("bogus", 1); err == nil {
		t.Error("unknown name should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompressor should panic on unknown name")
		}
	}()
	MustCompressor("bogus", 1)
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("demo", "a", "bb")
	tbl.AddRow("x", "y")
	tbl.AddRow("longer")
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "longer"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := FmtX(0); got != "0 (no conv.)" {
		t.Errorf("FmtX(0) = %q", got)
	}
	if got := FmtX(41.7); got != "41.70x" {
		t.Errorf("FmtX = %q", got)
	}
	if got := FmtSecs(0.5); got != "500.000 ms" {
		t.Errorf("FmtSecs = %q", got)
	}
	if got := FmtSecs(2); got != "2.000 s" {
		t.Errorf("FmtSecs = %q", got)
	}
	if got := FmtSecs(2e-6); got != "2.0 us" {
		t.Errorf("FmtSecs = %q", got)
	}
	if got := FmtRatio(0.95, 0.01); !strings.Contains(got, "0.950") {
		t.Errorf("FmtRatio = %q", got)
	}
	if got := FmtRatio(1e-4, 1e-5); !strings.Contains(got, "e-0") {
		t.Errorf("FmtRatio small = %q", got)
	}
}

func TestSeriesRendering(t *testing.T) {
	var buf bytes.Buffer
	Series(&buf, "s", []float64{1, 2, 3, 4, 5}, 3)
	out := buf.String()
	if !strings.Contains(out, "[    0]") || !strings.Contains(out, "[    4]") {
		t.Errorf("series endpoints missing:\n%s", out)
	}
	Series(&buf, "empty", nil, 3)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Error("empty series not handled")
	}
}

func TestTable1Catalog(t *testing.T) {
	var buf bytes.Buffer
	Table1Catalog(&buf)
	for _, want := range []string{"lstm-ptb", "vgg19-imagenet", "94%", "66034000"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

// skipIfShort skips the multi-second figure regenerations under
// `go test -short`, keeping the fast CI path fast; the full figure
// suite still runs them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-second figure regeneration skipped in -short mode")
	}
}

// runFigure executes a figure entry point with fast options and returns
// its output.
func runFigure(t *testing.T, name string, f func() error, buf *bytes.Buffer) string {
	t.Helper()
	if err := f(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", name)
	}
	return out
}

func TestFig1(t *testing.T) {
	var buf bytes.Buffer
	out := runFigure(t, "fig1", func() error { return Fig1(&buf, fastOpt) }, &buf)
	for _, want := range []string{"Fig 1 (gpu)", "Fig 1 (cpu)", "Fig 1c", "sidco-e", "dgc"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestFig3RNNBenchmarks(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig3", func() error { return Fig3(&buf, fastOpt) }, &buf)
	for _, want := range []string{"lstm-ptb", "lstm-an4", "speed-up", "throughput", "estimation quality"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 missing %q", want)
		}
	}
}

func TestFig5And6CNNBenchmarks(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig5", func() error { return Fig5(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "resnet20-cifar10") || !strings.Contains(out, "vgg16-cifar10") {
		t.Error("Fig5 workloads missing")
	}
	buf.Reset()
	out = runFigure(t, "fig6", func() error { return Fig6(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "resnet50-imagenet") || !strings.Contains(out, "vgg19-imagenet") {
		t.Error("Fig6 workloads missing")
	}
}

func TestFig2And8Fitting(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Iters: 40, Seed: 2}
	out := runFigure(t, "fig2", func() error { return Fig2(&buf, opt) }, &buf)
	for _, want := range []string{"double-exp", "double-gamma", "double-GP", "KS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 missing %q", want)
		}
	}
	buf.Reset()
	out = runFigure(t, "fig8", func() error { return Fig8(&buf, opt) }, &buf)
	if !strings.Contains(out, "with EC") {
		t.Error("Fig8 title missing")
	}
}

func TestFig4TrainingLoss(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig4", func() error { return Fig4(&buf, Options{Iters: 25, Seed: 3}) }, &buf)
	for _, want := range []string{"sidco-e", "gaussiank", "final loss", "loss vs iteration"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing %q", want)
		}
	}
}

func TestFig7Compressibility(t *testing.T) {
	var buf bytes.Buffer
	out := runFigure(t, "fig7", func() error { return Fig7(&buf, Options{Iters: 30, Seed: 4}) }, &buf)
	if !strings.Contains(out, "p (fit)") || !strings.Contains(out, "sigma_k") {
		t.Errorf("Fig7 output malformed:\n%s", out)
	}
}

func TestFig9Smoothed(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig9", func() error { return Fig9(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "smoothed achieved ratio") {
		t.Error("Fig9 title missing")
	}
}

func TestFig10LossVsTime(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig10", func() error { return Fig10(&buf, Options{Iters: 25, SimScale: 400, Seed: 5}) }, &buf)
	if !strings.Contains(out, "wall time") {
		t.Error("Fig10 title missing")
	}
}

func TestFig11Breakdown(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig11", func() error { return Fig11(&buf, fastOpt) }, &buf)
	for _, want := range []string{"compute", "compress", "comm", "VGG19"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig11 missing %q", want)
		}
	}
}

func TestFig12CPUDevice(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig12", func() error { return Fig12(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "CPU compression device") {
		t.Error("Fig12 title missing")
	}
}

func TestFig13NVLink(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	out := runFigure(t, "fig13", func() error { return Fig13(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "Fig 13") {
		t.Error("Fig13 title missing")
	}
}

func TestFig14Through17DeviceModels(t *testing.T) {
	var buf bytes.Buffer
	out := runFigure(t, "fig14/15", func() error { return Fig14And15(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "resnet50") || !strings.Contains(out, "lstm") {
		t.Error("Fig14/15 models missing")
	}
	buf.Reset()
	out = runFigure(t, "fig16/17", func() error { return Fig16And17(&buf, fastOpt) }, &buf)
	if !strings.Contains(out, "260M") {
		t.Error("Fig16/17 sizes missing")
	}
}

func TestFig18AllSIDs(t *testing.T) {
	var buf bytes.Buffer
	out := runFigure(t, "fig18", func() error {
		return TrainingFigure(&buf, TrainingFigureConfig{
			Title:     "Fig 18",
			Workloads: []string{"resnet20-cifar10"}, // one workload keeps the test fast
			Opt:       fastOpt,
		})
	}, &buf)
	if !strings.Contains(out, "sidco-p") || !strings.Contains(out, "sidco-gp") {
		t.Error("Fig18 variants missing")
	}
}

func TestTopologyStudy(t *testing.T) {
	var buf bytes.Buffer
	out := runFigure(t, "topology", func() error {
		return TopologyStudy(&buf, []string{"resnet20-cifar10"}, "topk", fastOpt)
	}, &buf)
	for _, want := range []string{"Topology study", "ring", "allgather", "ps", "speed-up"} {
		if !strings.Contains(out, want) {
			t.Errorf("TopologyStudy missing %q:\n%s", want, out)
		}
	}
	if err := TopologyStudy(&buf, []string{"bogus"}, "topk", fastOpt); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestGoWallClock(t *testing.T) {
	var buf bytes.Buffer
	if err := GoWallClock(&buf, 200000, 0.01, 1, 6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wall-clock") {
		t.Error("wall clock output missing")
	}
	// A compressor failure inside the timing loop comes back as an error,
	// not a panic.
	if err := GoWallClock(&buf, 1000, 2, 1, 6); err == nil {
		t.Error("ratio 2 should fail every compressor and surface as an error")
	}
}

func TestAblations(t *testing.T) {
	skipIfShort(t)
	cases := []struct {
		name string
		f    func(buf *bytes.Buffer) error
	}{
		{"stages", func(b *bytes.Buffer) error { return AblationStages(b, fastOpt) }},
		{"delta1", func(b *bytes.Buffer) error { return AblationDelta1(b, fastOpt) }},
		{"adapt", func(b *bytes.Buffer) error { return AblationAdapt(b, fastOpt) }},
		{"sid", func(b *bytes.Buffer) error { return AblationSID(b, fastOpt) }},
		{"gamma-approx", func(b *bytes.Buffer) error { return AblationGammaApprox(b, fastOpt) }},
		{"ec", func(b *bytes.Buffer) error { return AblationEC(b, Options{Iters: 25, Seed: 7}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.f(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Ablation") {
				t.Error("ablation title missing")
			}
		})
	}
}
