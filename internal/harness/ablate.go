package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/simgrad"
	"repro/internal/stats"
)

// qualityOf streams gradients from gen through comp and returns the mean
// achieved ratio and the mean absolute log-ratio error (0 = perfect). A
// compressor that reports its selection is scored on what its estimate
// alone selected: SIDCo ships inside the tolerance band whatever the
// estimate said, and the ablations are about the estimate.
func qualityOf(comp compress.Compressor, gen *simgrad.Generator, dim int, delta float64, iters int) (mean, logErr float64, err error) {
	k := compress.TargetK(dim, delta)
	var r stats.Running
	sumLog := 0.0
	buf := make([]float64, dim)
	for i := 0; i < iters; i++ {
		gen.Fill(buf)
		s, err := compress.FreshCompress(comp, buf, delta)
		if err != nil {
			return 0, 0, err
		}
		n := s.NNZ()
		if sr, ok := comp.(compress.SelectionReporter); ok {
			if sel := sr.LastSelection(); sel.Stages > 0 {
				n = sel.Estimated
			}
		}
		ratio := float64(n) / float64(k)
		r.Add(ratio)
		sumLog += math.Abs(math.Log(math.Max(ratio, 1e-9)))
	}
	return r.Mean(), sumLog / float64(iters), nil
}

func gammaStream(dim int, seed int64) *simgrad.Generator {
	return simgrad.New(simgrad.Config{
		Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.55, Scale: 0.01, Seed: seed,
	})
}

// AblationStages compares the count-driven multi-stage estimator against
// forced single-stage fitting across ratios (the Section 2.4 motivation).
// Both ship inside the tolerance band — that is guaranteed — so the table
// scores what the estimates alone selected, before any correction.
func AblationStages(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const dim = 200000
	tbl := NewTable("Ablation: multi-stage vs single-stage fitting (mean |log k-hat/k|; lower is better)",
		"delta", "single-stage", "count-driven multi-stage")
	for _, delta := range Ratios {
		single := core.New(core.Config{SID: core.SIDExponential, MaxStages: 1})
		multi := core.NewE()
		_, singleErr, err := qualityOf(single, gammaStream(dim, opt.Seed), dim, delta, opt.Iters)
		if err != nil {
			return err
		}
		_, multiErr, err := qualityOf(multi, gammaStream(dim, opt.Seed), dim, delta, opt.Iters)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("%g", delta), fmt.Sprintf("%.4f", singleErr), fmt.Sprintf("%.4f", multiErr))
	}
	tbl.Render(w)
	return nil
}

// AblationDelta1 sweeps the first-stage ratio delta1 (the paper fixes
// 0.25), reporting estimation quality and modelled GPU latency.
func AblationDelta1(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const dim, delta = 200000, 0.001
	tbl := NewTable("Ablation: first-stage ratio delta1 at delta=0.001",
		"delta1", "mean k-hat/k", "|log err|", "stages", "GPU latency (model)")
	for _, d1 := range []float64{0.05, 0.1, 0.25, 0.5} {
		c := core.New(core.Config{SID: core.SIDExponential, Delta1: d1})
		mean, logErr, err := qualityOf(c, gammaStream(dim, opt.Seed), dim, delta, opt.Iters)
		if err != nil {
			return err
		}
		stages := c.LastSelection().Stages
		lat, err := gpu.latency("sidco-e", 14982987, delta, stages)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("%g", d1), fmt.Sprintf("%.4f", mean),
			fmt.Sprintf("%.4f", logErr), fmt.Sprintf("%d", stages), FmtSecs(lat))
	}
	tbl.Render(w)
	return nil
}

// AblationAdapt compares the count-driven stage plan against the same
// plan under a MaxStages cap, whose final stage must then cut at a ratio
// below delta1.
func AblationAdapt(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const dim, delta = 200000, 0.001
	tbl := NewTable("Ablation: count-driven stages vs a MaxStages cap at delta=0.001 (estimate before correction)",
		"configuration", "mean k-hat/k", "|log err|", "stages")
	configs := []struct {
		name string
		c    *core.SIDCo
	}{
		{"count-driven", core.NewE()},
		{"MaxStages=1", core.New(core.Config{SID: core.SIDExponential, MaxStages: 1})},
		{"MaxStages=2", core.New(core.Config{SID: core.SIDExponential, MaxStages: 2})},
		{"MaxStages=4", core.New(core.Config{SID: core.SIDExponential, MaxStages: 4})},
	}
	for _, cfg := range configs {
		mean, logErr, err := qualityOf(cfg.c, gammaStream(dim, opt.Seed), dim, delta, opt.Iters)
		if err != nil {
			return err
		}
		tbl.AddRow(cfg.name, fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", logErr),
			fmt.Sprintf("%d", cfg.c.LastSelection().Stages))
	}
	tbl.Render(w)
	return nil
}

// AblationSID crosses the three SIDCo variants with three gradient
// families, showing how fitting family matches tail behaviour.
func AblationSID(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const dim, delta = 200000, 0.01
	families := []struct {
		name string
		cfg  simgrad.Config
	}{
		{"laplace", simgrad.Config{Dim: dim, Family: simgrad.FamilyLaplace, Scale: 0.01, Seed: opt.Seed}},
		{"gamma(0.55)", simgrad.Config{Dim: dim, Family: simgrad.FamilyDoubleGamma, Shape: 0.55, Scale: 0.01, Seed: opt.Seed}},
		{"gp(0.2)", simgrad.Config{Dim: dim, Family: simgrad.FamilyDoubleGP, Shape: 0.2, Scale: 0.01, Seed: opt.Seed}},
	}
	tbl := NewTable("Ablation: SID family vs gradient family (mean k-hat/k at delta=0.01)",
		"gradient family", "sidco-e", "sidco-gp", "sidco-p")
	for _, fam := range families {
		row := []string{fam.name}
		for _, cName := range []string{"sidco-e", "sidco-gp", "sidco-p"} {
			c := MustCompressor(cName, opt.Seed)
			mean, _, err := qualityOf(c, simgrad.New(fam.cfg), dim, delta, opt.Iters)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.4f", mean))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}

// AblationGammaApprox compares the paper's closed-form gamma threshold
// approximation (eq. 15) against the exact inverse-incomplete-gamma
// quantile used by default in this implementation.
func AblationGammaApprox(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const dim, delta = 200000, 0.001
	tbl := NewTable("Ablation: gamma threshold — paper's closed form vs exact quantile (delta=0.001)",
		"first stage", "mean k-hat/k", "|log err|")
	for _, cfg := range []struct {
		name   string
		approx bool
	}{{"exact quantile (default)", false}, {"paper closed form (eq. 15)", true}} {
		c := core.New(core.Config{SID: core.SIDGammaGP, ApproxGamma: cfg.approx})
		mean, logErr, err := qualityOf(c, gammaStream(dim, opt.Seed), dim, delta, opt.Iters)
		if err != nil {
			return err
		}
		tbl.AddRow(cfg.name, fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", logErr))
	}
	tbl.Render(w)
	return nil
}

// AblationEC trains the conv model with and without error feedback under
// Top-k and SIDCo compression, reporting final losses — the Figure 2 vs
// Figure 8 contrast in training-quality terms.
func AblationEC(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const delta = 0.01
	tbl := NewTable("Ablation: error feedback on/off (conv net, delta=0.01; final loss, lower is better)",
		"compressor", "EC on", "EC off")
	for _, cName := range []string{"topk", "sidco-e"} {
		row := []string{cName}
		for _, ec := range []bool{true, false} {
			tr, err := buildConvTrainer(cName, delta, ec, opt, nil)
			if err != nil {
				return err
			}
			losses, _, err := tr.Run(opt.Iters)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.4f", meanTail(losses, 10)))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
	return nil
}
