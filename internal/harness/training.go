package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// now reads the wall clock for throughput reporting.
//
//sidco:nondet wall-clock benchmark measurement, reporting only
func now() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// Table1Catalog prints the benchmark suite (Table 1).
func Table1Catalog(w io.Writer) {
	tbl := NewTable("Table 1: benchmark suite",
		"workload", "task", "params", "batch/worker", "LR", "epochs", "comm overhead", "optimizer", "quality metric")
	for _, wl := range dist.Table1() {
		tbl.AddRow(wl.Name, wl.Task, fmt.Sprintf("%d", wl.Dim), fmt.Sprintf("%d", wl.BatchSize),
			fmt.Sprintf("%g", wl.LR), fmt.Sprintf("%d", wl.Epochs),
			fmt.Sprintf("%.0f%%", wl.CommOverhead*100), wl.Optimizer, wl.Quality)
	}
	tbl.Render(w)
}

// TrainingFigureConfig drives the simulated training figures (3, 5, 6, 13,
// 18). A zero Net is the paper's cluster.
type TrainingFigureConfig struct {
	Title       string
	Workloads   []string
	Ratios      []float64
	Compressors []string
	Net         netsim.Network
	Opt         Options
}

// TrainingFigure renders speed-up, normalized throughput and estimation
// quality tables for each workload, mirroring the three-panel layout of
// Figures 3, 5, 6, 13 and 18.
func TrainingFigure(w io.Writer, cfg TrainingFigureConfig) error {
	cfg.Opt = cfg.Opt.withDefaults()
	model := paperCluster
	if cfg.Net.Workers != 0 {
		model.net = cfg.Net
	}
	if len(cfg.Ratios) == 0 {
		cfg.Ratios = Ratios
	}
	if len(cfg.Compressors) == 0 {
		cfg.Compressors = CompressorNames
	}
	for _, wlName := range cfg.Workloads {
		wl, err := dist.WorkloadByName(wlName)
		if err != nil {
			return err
		}
		cols := ratioColumns(cfg.Ratios)
		speed := NewTable(fmt.Sprintf("%s — %s: normalized training speed-up (vs no compression)", cfg.Title, wlName), cols...)
		tput := NewTable(fmt.Sprintf("%s — %s: normalized average training throughput", cfg.Title, wlName), cols...)
		qual := NewTable(fmt.Sprintf("%s — %s: estimation quality (mean k-hat/k, 90%% CI)", cfg.Title, wlName), cols...)

		// No compression prices the same iteration at every ratio.
		base, err := model.run(wl, "none", 1, cfg.Opt)
		if err != nil {
			return err
		}
		for _, cName := range cfg.Compressors {
			speedRow := []string{cName}
			tputRow := []string{cName}
			qualRow := []string{cName}
			for _, delta := range cfg.Ratios {
				res, err := model.run(wl, cName, delta, cfg.Opt)
				if err != nil {
					return err
				}
				speedRow = append(speedRow, FmtX(res.speedup(base)))
				tputRow = append(tputRow, FmtX(res.throughput/base.throughput))
				qualRow = append(qualRow, FmtRatio(res.meanRatio, res.ci90))
			}
			speed.AddRow(speedRow...)
			tput.AddRow(tputRow...)
			qual.AddRow(qualRow...)
		}
		speed.Render(w)
		tput.Render(w)
		qual.Render(w)
	}
	return nil
}

// Fig3 renders the RNN benchmarks (LSTM-PTB, LSTM-AN4).
func Fig3(w io.Writer, opt Options) error {
	return TrainingFigure(w, TrainingFigureConfig{
		Title:     "Fig 3",
		Workloads: []string{"lstm-ptb", "lstm-an4"},
		Compressors: []string{
			"topk", "dgc", "redsync", "gaussiank", "sidco-e",
		},
		Opt: opt,
	})
}

// Fig5 renders the CIFAR-10 CNN benchmarks.
func Fig5(w io.Writer, opt Options) error {
	return TrainingFigure(w, TrainingFigureConfig{
		Title:       "Fig 5",
		Workloads:   []string{"resnet20-cifar10", "vgg16-cifar10"},
		Compressors: []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e"},
		Opt:         opt,
	})
}

// Fig6 renders the ImageNet benchmarks.
func Fig6(w io.Writer, opt Options) error {
	return TrainingFigure(w, TrainingFigureConfig{
		Title:       "Fig 6",
		Workloads:   []string{"resnet50-imagenet", "vgg19-imagenet"},
		Compressors: []string{"topk", "dgc", "redsync", "gaussiank", "sidco-e"},
		Opt:         opt,
	})
}

// Fig13 renders the multi-GPU single-node ImageNet experiment (fast
// NVLink-class fabric).
func Fig13(w io.Writer, opt Options) error {
	return TrainingFigure(w, TrainingFigureConfig{
		Title:     "Fig 13",
		Workloads: []string{"resnet50-imagenet", "vgg19-imagenet"},
		Ratios:    []float64{0.1, 0.01},
		Net:       netsim.NVLinkNode(8),
		Opt:       opt,
	})
}

// Fig18 renders the full all-SIDs comparison across every workload.
func Fig18(w io.Writer, opt Options) error {
	return TrainingFigure(w, TrainingFigureConfig{
		Title: "Fig 18",
		Workloads: []string{
			"lstm-ptb", "lstm-an4", "resnet20-cifar10",
			"vgg16-cifar10", "resnet50-imagenet", "vgg19-imagenet",
		},
		Opt: opt,
	})
}

// Fig9 renders the smoothed (EWMA) achieved-compression-ratio series for
// every workload and ratio — the stability view of threshold estimators.
func Fig9(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	names := []string{"dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"}
	for _, wlName := range []string{"resnet20-cifar10", "vgg16-cifar10", "lstm-ptb", "lstm-an4"} {
		wl, err := dist.WorkloadByName(wlName)
		if err != nil {
			return err
		}
		for _, delta := range Ratios {
			tbl := NewTable(fmt.Sprintf("Fig 9 — %s, delta=%g: smoothed achieved ratio over training", wlName, delta),
				"compressor", "iter 25%", "iter 50%", "iter 75%", "iter 100%", "geo-mean")
			for _, cName := range names {
				res, err := paperCluster.run(wl, cName, delta, opt)
				if err != nil {
					return err
				}
				e := stats.EWMA{Alpha: 0.1}
				smoothed := make([]float64, len(res.ratios))
				for i, r := range res.ratios {
					smoothed[i] = e.Add(r * delta) // absolute achieved ratio, as the paper plots
				}
				n := len(smoothed)
				tbl.AddRow(cName,
					fmt.Sprintf("%.2e", smoothed[n/4]),
					fmt.Sprintf("%.2e", smoothed[n/2]),
					fmt.Sprintf("%.2e", smoothed[3*n/4]),
					fmt.Sprintf("%.2e", smoothed[n-1]),
					fmt.Sprintf("%.3f", res.geoMeanRatio))
			}
			tbl.Render(w)
		}
	}
	return nil
}

// Fig11 renders the VGG19 delta=0.001 deep dive: smoothed ratio and the
// iteration-time decomposition.
func Fig11(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	wl, err := dist.WorkloadByName("vgg19-imagenet")
	if err != nil {
		return err
	}
	tbl := NewTable("Fig 11 — VGG19 ImageNet, delta=0.001: ratio quality and iteration breakdown",
		"compressor", "mean ratio", "geo-mean", "compute", "compress", "comm", "iter")
	for _, cName := range []string{"none", "topk", "dgc", "redsync", "gaussiank", "sidco-e", "sidco-gp", "sidco-p"} {
		res, err := paperCluster.run(wl, cName, 0.001, opt)
		if err != nil {
			return err
		}
		tbl.AddRow(cName,
			fmt.Sprintf("%.3f", res.meanRatio),
			fmt.Sprintf("%.3f", res.geoMeanRatio),
			FmtSecs(res.compute), FmtSecs(res.compress),
			FmtSecs(res.comm), FmtSecs(res.iter))
	}
	tbl.Render(w)
	return nil
}
