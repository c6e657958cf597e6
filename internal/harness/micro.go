package harness

import (
	"fmt"
	"io"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/simgrad"
	"repro/internal/stats"
)

// Options scales experiments down for tests and benches; zero values take
// the full defaults.
type Options struct {
	// Iters is the number of statistical iterations per run (default 100).
	Iters int
	// SimScale divides gradient dimensionality for statistical streams
	// (default 100).
	SimScale int
	// Seed fixes all random streams.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		o.Iters = 100
	}
	if o.SimScale <= 0 {
		o.SimScale = 100
	}
	return o
}

// Ratios are the paper's three target compression ratios.
var Ratios = []float64{0.1, 0.01, 0.001}

// sidcoStages maps each of Ratios to the stage count SIDCo-E's
// count-driven plan runs at it on the estimation-quality stream: what the
// latency model charges when no statistical run is at hand.
func sidcoStages() map[float64]int {
	stages := make(map[float64]int, len(Ratios))
	for _, delta := range Ratios {
		_, _, m, err := estimationQuality("sidco-e", 1<<16, delta, Options{Iters: 1})
		if err != nil {
			panic(err) // "sidco-e" is in the registry
		}
		stages[delta] = m
	}
	return stages
}

// estimationQuality runs a compressor over a synthetic stream and returns
// mean achieved ratio with 90% CI.
func estimationQuality(name string, dim int, delta float64, opt Options) (mean, ci float64, stages int, err error) {
	comp, err := NewCompressor(name, opt.Seed)
	if err != nil {
		return 0, 0, 0, err
	}
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01,
		OutlierFrac: 5e-6, OutlierScale: 300, Seed: opt.Seed,
	})
	k := compress.TargetK(dim, delta)
	var r stats.Running
	buf := make([]float64, dim)
	for i := 0; i < opt.Iters; i++ {
		gen.Fill(buf)
		s, err := compress.FreshCompress(comp, buf, delta)
		if err != nil {
			return 0, 0, 0, err
		}
		r.Add(float64(s.NNZ()) / float64(k))
	}
	if sr, ok := comp.(compress.SelectionReporter); ok {
		stages = sr.LastSelection().Stages
	}
	return r.Mean(), r.ConfidenceInterval(0.90), stages, nil
}

// Fig1 reproduces Figure 1: compression speed-up over Top-k on GPU (a) and
// CPU (b) for the VGG16-sized gradient at the three ratios, plus the
// threshold-estimation quality (c).
func Fig1(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	vgg, err := dist.WorkloadByName("vgg16-cifar10")
	if err != nil {
		return err
	}
	dim := vgg.Dim
	simDim := dim / opt.SimScale
	names := []string{"dgc", "redsync", "gaussiank", "sidco-e"}
	stages := sidcoStages()
	for _, dev := range []device{gpu, cpu} {
		tbl := NewTable(fmt.Sprintf("Fig 1 (%s): compression speed-up over Top-k, VGG16 (d=%d)", dev.name, dim),
			ratioColumns(Ratios)...)
		for _, name := range names {
			row := []string{name}
			for _, delta := range Ratios {
				topk, err := dev.latency("topk", dim, delta, 1)
				if err != nil {
					return err
				}
				lat, err := dev.latency(name, dim, delta, stages[delta])
				if err != nil {
					return err
				}
				row = append(row, FmtX(topk/lat))
			}
			tbl.AddRow(row...)
		}
		tbl.Render(w)
	}

	tbl := NewTable("Fig 1c: threshold estimation quality (mean k-hat/k, 90% CI)",
		ratioColumns(Ratios)...)
	for _, name := range names {
		row := []string{name}
		for _, delta := range Ratios {
			mean, ci, _, err := estimationQuality(name, simDim, delta, opt)
			if err != nil {
				return err
			}
			row = append(row, FmtRatio(mean, ci))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}

// ratioColumns is the header of a compressor-by-ratio table.
func ratioColumns(ratios []float64) []string {
	out := []string{"compressor"}
	for _, r := range ratios {
		out = append(out, fmt.Sprintf("delta=%g", r))
	}
	return out
}

// Fig14And15 reproduces Figures 14 (speed-up over Top-k) and 15 (absolute
// latency) for real model sizes on both devices.
func Fig14And15(w io.Writer, opt Options) error {
	models := []struct {
		name string
		dim  int
	}{
		{"resnet20", 269467},
		{"vgg16", 14982987},
		{"resnet50", 25559081},
		{"lstm", 66034000},
	}
	names := []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}
	stages := sidcoStages()
	for _, dev := range []device{gpu, cpu} {
		for _, m := range models {
			tbl := NewTable(fmt.Sprintf("Fig 14/15 (%s, %s d=%d): latency and speed-up over Top-k", dev.name, m.name, m.dim),
				"compressor", "delta=0.1", "delta=0.01", "delta=0.001", "speedup@0.001")
			var topkLat float64
			for _, name := range names {
				row := []string{name}
				var last float64
				for _, delta := range Ratios {
					lat, err := dev.latency(name, m.dim, delta, stages[delta])
					if err != nil {
						return err
					}
					row = append(row, FmtSecs(lat))
					last = lat
				}
				if name == "topk" {
					topkLat = last
				}
				row = append(row, FmtX(topkLat/last))
				tbl.AddRow(row...)
			}
			tbl.Render(w)
		}
	}
	return nil
}

// Fig16And17 reproduces Figures 16/17: latency and speed-up on synthetic
// tensors of 0.26M to 260M elements.
func Fig16And17(w io.Writer, opt Options) error {
	sizes := []int{260_000, 2_600_000, 26_000_000, 260_000_000}
	names := []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}
	const delta = 0.001
	stages := sidcoStages()
	for _, dev := range []device{gpu, cpu} {
		tbl := NewTable(fmt.Sprintf("Fig 16/17 (%s): synthetic tensors, delta=%g", dev.name, delta),
			"compressor", "0.26M", "2.6M", "26M", "260M", "speedup@26M")
		for _, name := range names {
			row := []string{name}
			var at26 float64
			for _, d := range sizes {
				lat, err := dev.latency(name, d, delta, stages[delta])
				if err != nil {
					return err
				}
				if d == 26_000_000 {
					at26 = lat
				}
				row = append(row, FmtSecs(lat))
			}
			topk, err := dev.latency("topk", 26_000_000, delta, 1)
			if err != nil {
				return err
			}
			row = append(row, FmtX(topk/at26))
			tbl.AddRow(row...)
		}
		tbl.Render(w)
	}
	return nil
}

// GoWallClock measures the *actual Go implementation* wall-clock of each
// compressor on this machine for a given dimension, complementing the
// latency model with real numbers (reported alongside Figure 1).
func GoWallClock(w io.Writer, dim int, delta float64, iters int, seed int64) error {
	if iters <= 0 {
		iters = 3
	}
	gen := simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.6, Scale: 0.01, Seed: seed,
	})
	g := gen.Next()
	tbl := NewTable(fmt.Sprintf("Go wall-clock (this machine), d=%d, delta=%g", dim, delta),
		"compressor", "mean latency", "speedup vs topk", "k-hat/k")
	var topkTime float64
	k := compress.TargetK(dim, delta)
	for _, name := range CompressorNames {
		comp, err := NewCompressor(name, seed)
		if err != nil {
			return err
		}
		var nnz int
		var compErr error
		elapsed := timeIt(iters, func() {
			s, err := compress.FreshCompress(comp, g, delta)
			if err != nil {
				compErr = err
				return
			}
			nnz = s.NNZ()
		})
		if compErr != nil {
			return fmt.Errorf("harness: wall-clock %s: %w", name, compErr)
		}
		if name == "topk" {
			topkTime = elapsed
		}
		tbl.AddRow(name, FmtSecs(elapsed), FmtX(topkTime/elapsed),
			fmt.Sprintf("%.3f", float64(nnz)/float64(k)))
	}
	tbl.Render(w)
	return nil
}

// timeIt returns the mean wall-clock seconds of f over n runs.
func timeIt(n int, f func()) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		f()
	}
	return (now() - t0) / float64(n)
}

// Fig12 reproduces Figure 12: training throughput (samples/s) with the
// CPU as the compression device.
func Fig12(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	model := iterModel{net: paperCluster.net, dev: cpu}
	compressors := []string{"topk", "dgc", "sidco-e"}
	hdr := []string{"workload"}
	for _, c := range compressors {
		for _, r := range Ratios {
			hdr = append(hdr, fmt.Sprintf("%s@%g", c, r))
		}
	}
	tbl := NewTable("Fig 12: training throughput, CPU compression device (samples/s)", hdr...)
	for _, wlName := range []string{"resnet20-cifar10", "vgg16-cifar10", "lstm-ptb"} {
		wl, err := dist.WorkloadByName(wlName)
		if err != nil {
			return err
		}
		row := []string{wlName}
		for _, cName := range compressors {
			for _, delta := range Ratios {
				res, err := model.run(wl, cName, delta, opt)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.0f", res.throughput))
			}
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}
