package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/simgrad"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// buildConvTrainer assembles the ResNet20-CIFAR10 stand-in: a small conv
// net on synthetic class-textured images, trained by N workers with the
// given compressor.
func buildConvTrainer(compName string, delta float64, ec bool, opt Options, tap func(int, []float64)) (*dist.Trainer, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	model := nn.NewSequential(
		nn.NewConv2D("c1", 3, 8, 3, rng),
		&nn.ReLU{},
		&nn.MaxPool2D{},
		nn.NewConv2D("c2", 8, 8, 3, rng),
		&nn.ReLU{},
		&nn.Flatten{},
		nn.NewDense("d1", 8*3*3, 10, rng),
	)
	ds := data.NewImages(data.ImagesConfig{N: 512, Classes: 10, Seed: opt.Seed})
	var newComp func() compress.Compressor
	if compName != "" && compName != "none" {
		newComp = factory(compName, opt.Seed)
	}
	return dist.NewTrainer(dist.TrainerConfig{
		Workers: 4,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.SGD{LR: 0.05},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return ds.Batch(rng, 16)
		},
		NewCompressor: newComp,
		Delta:         delta,
		EC:            ec && newComp != nil,
		Seed:          opt.Seed,
		OnGradient:    tap,
	})
}

// buildLMTrainer assembles the LSTM-PTB stand-in: an embedding + LSTM
// language model on a synthetic Markov corpus.
func buildLMTrainer(compName string, delta float64, opt Options) (*dist.Trainer, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	const vocab, emb, hidden, T = 30, 16, 64, 12
	model := nn.NewSequential(
		nn.NewEmbedding("emb", vocab, emb, rng),
		nn.NewLSTM("lstm", emb, hidden, rng),
		nn.NewTimeDistributed(nn.NewDense("out", hidden, vocab, rng)),
	)
	corpus := data.NewCorpus(data.CorpusConfig{Tokens: 30000, Vocab: vocab, Seed: opt.Seed})
	var newComp func() compress.Compressor
	if compName != "" && compName != "none" {
		newComp = factory(compName, opt.Seed)
	}
	return dist.NewTrainer(dist.TrainerConfig{
		Workers: 4,
		Model:   model,
		Loss:    &nn.SoftmaxCrossEntropy{},
		Opt:     &nn.Momentum{LR: 0.2, Mu: 0.9},
		Batch: func(worker int, rng *rand.Rand) (*nn.Tensor, []int) {
			return corpus.Batch(rng, 8, T)
		},
		NewCompressor: newComp,
		Delta:         delta,
		EC:            newComp != nil,
		ClipNorm:      5,
		Seed:          opt.Seed,
	})
}

// fitAndReport fits the three SIDs to one gradient snapshot and appends
// rows to the table.
func fitAndReport(tbl *Table, label string, g []float64) {
	e := stats.NewECDF(g)
	absG := tensor.Abs(g, nil)
	absE := stats.NewECDF(absG)

	expFit := stats.FitExponentialAbs(g)
	gammaFit := stats.FitGammaAbs(g)
	gpFit := stats.FitGPAbs(g)

	tbl.AddRow(label+" double-exp",
		fmt.Sprintf("beta=%.3e", expFit.Scale),
		fmt.Sprintf("%.4f", absE.KSDistance(expFit)),
		fmt.Sprintf("%.4f", e.KSDistance(stats.Laplace{Scale: expFit.Scale})))
	tbl.AddRow(label+" double-gamma",
		fmt.Sprintf("alpha=%.3f beta=%.3e", gammaFit.Shape, gammaFit.Scale),
		fmt.Sprintf("%.4f", absE.KSDistance(stats.Gamma{Shape: gammaFit.Shape, Scale: gammaFit.Scale})),
		fmt.Sprintf("%.4f", e.KSDistance(stats.DoubleGamma{Shape: gammaFit.Shape, Scale: gammaFit.Scale})))
	tbl.AddRow(label+" double-GP",
		fmt.Sprintf("alpha=%.3f beta=%.3e", gpFit.Shape, gpFit.Scale),
		fmt.Sprintf("%.4f", absE.KSDistance(stats.GeneralizedPareto{Shape: gpFit.Shape, Scale: gpFit.Scale})),
		fmt.Sprintf("%.4f", e.KSDistance(stats.DoubleGP{Shape: gpFit.Shape, Scale: gpFit.Scale})))
}

// fittingFigure is the shared implementation of Figures 2 (no EC) and 8
// (with EC): train the conv net with Top-k compression, snapshot the
// gradient early and late, and fit the three SIDs.
func fittingFigure(w io.Writer, title string, ec bool, opt Options) error {
	opt = opt.withDefaults()
	early := opt.Iters / 10
	late := opt.Iters - 1
	rec := newGradRecorder(true, early, late)
	tr, err := buildConvTrainer("topk", 0.001, ec, opt, rec.observe)
	if err != nil {
		return err
	}
	if _, _, err := tr.Run(opt.Iters); err != nil {
		return err
	}
	tbl := NewTable(title, "snapshot + SID", "fitted params", "KS(|g|)", "KS(g)")
	for _, it := range []int{early, late} {
		g, err := rec.snapshot(it)
		if err != nil {
			return err
		}
		fitAndReport(tbl, fmt.Sprintf("iter %d:", it), g)
	}
	tbl.Render(w)
	return nil
}

// Fig2 reproduces Figure 2: SID fits of training gradients without error
// compensation.
func Fig2(w io.Writer, opt Options) error {
	return fittingFigure(w, "Fig 2: SID fits of conv-net gradients (no EC), early vs late iteration", false, opt)
}

// Fig8 reproduces Figure 8: SID fits with the EC mechanism enabled.
func Fig8(w io.Writer, opt Options) error {
	return fittingFigure(w, "Fig 8: SID fits of conv-net gradients (with EC), early vs late iteration", true, opt)
}

// Fig7 reproduces Figure 7: the compressibility study — power-law decay of
// sorted gradient magnitudes and the best-k sparsification error.
func Fig7(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	snaps := []int{0, opt.Iters / 2, opt.Iters - 1}
	rec := newGradRecorder(true, snaps...)
	tr, err := buildConvTrainer("", 0, false, opt, rec.observe)
	if err != nil {
		return err
	}
	if _, _, err := tr.Run(opt.Iters); err != nil {
		return err
	}
	tbl := NewTable("Fig 7: gradient compressibility (power-law decay exponent p and sparsification error)",
		"snapshot", "p (fit)", "compressible (p>0.5)", "sigma_k/||g|| @1%", "@5%", "@20%")
	for _, it := range snaps {
		g, err := rec.snapshot(it)
		if err != nil {
			return err
		}
		sorted := tensor.SortedAbsDescending(g)
		p := simgrad.PowerLawFit(sorted)
		norm := tensor.Norm2(g)
		row := []string{fmt.Sprintf("iter %d", it), fmt.Sprintf("%.3f", p), fmt.Sprintf("%v", p > 0.5)}
		for _, frac := range []float64{0.01, 0.05, 0.20} {
			k := int(frac * float64(len(g)))
			if k < 1 {
				k = 1
			}
			idx, _ := tensor.TopKSelect(g, k)
			row = append(row, fmt.Sprintf("%.4f", tensor.SparsificationError(g, idx)/norm))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}

// Fig4 reproduces Figure 4: training loss and threshold-estimation quality
// over iterations at the aggressive ratio for the LSTM language model.
func Fig4(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const delta = 0.001
	tbl := NewTable(fmt.Sprintf("Fig 4: LSTM-LM training at delta=%g (final losses; lower is better)", delta),
		"compressor", "final loss", "mean k-hat/k", "geo-mean k-hat/k")
	for _, cName := range []string{"none", "topk", "dgc", "redsync", "gaussiank", "sidco-e"} {
		tr, err := buildLMTrainer(cName, delta, opt)
		if err != nil {
			return err
		}
		losses, ratios, err := tr.Run(opt.Iters)
		if err != nil {
			return err
		}
		geo := geoMean(ratios)
		tbl.AddRow(cName, fmt.Sprintf("%.4f", meanTail(losses, 10)),
			fmt.Sprintf("%.4f", meanOf(ratios)), fmt.Sprintf("%.4f", geo))
		Series(w, fmt.Sprintf("Fig 4 loss vs iteration (%s)", cName), losses, 8)
	}
	tbl.Render(w)
	return nil
}

// Fig10 reproduces Figure 10: training loss against simulated wall time,
// combining the real loss curves with the iteration model of the LSTM-PTB
// workload.
func Fig10(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const delta = 0.01
	wl, err := dist.WorkloadByName("lstm-ptb")
	if err != nil {
		return err
	}
	tbl := NewTable("Fig 10: loss vs simulated wall time, LSTM-PTB timeline, delta=0.01",
		"compressor", "iter time", "final loss", "sim. time to loss<=2.5")
	for _, cName := range []string{"none", "topk", "dgc", "sidco-e"} {
		res, err := paperCluster.run(wl, cName, delta, opt)
		if err != nil {
			return err
		}
		tr, err := buildLMTrainer(cName, delta, opt)
		if err != nil {
			return err
		}
		losses, _, err := tr.Run(opt.Iters)
		if err != nil {
			return err
		}
		timeTo := -1.0
		for i, l := range losses {
			if l <= 2.5 {
				timeTo = float64(i+1) * res.iter
				break
			}
		}
		timeStr := "not reached"
		if timeTo >= 0 {
			timeStr = FmtSecs(timeTo)
		}
		tbl.AddRow(cName, FmtSecs(res.iter), fmt.Sprintf("%.4f", meanTail(losses, 10)), timeStr)
	}
	tbl.Render(w)
	return nil
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanTail(xs []float64, n int) float64 {
	if len(xs) < n {
		n = len(xs)
	}
	return meanOf(xs[len(xs)-n:])
}

func geoMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		if x < 1e-9 {
			x = 1e-9
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
