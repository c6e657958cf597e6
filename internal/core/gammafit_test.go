package core_test

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/simgrad"
	"repro/internal/stats"
)

// TestGammaFirstStageMatchesPerElementLog holds SIDCo-GP's first-stage
// threshold, at the dimension and profile of the step benchmark's
// grad-sidcogp-d2m workload, to the one the per-element math.Log sweep
// produced: the log-free moment pass may move it only at rounding level.
func TestGammaFirstStageMatchesPerElementLog(t *testing.T) {
	wl, err := dist.WorkloadByName("vgg19-imagenet")
	if err != nil {
		t.Fatal(err)
	}
	g := simgrad.New(simgrad.Config{
		Dim: 1 << 21, Family: wl.Grad.Family, Shape: wl.Grad.Shape, Scale: wl.Grad.Scale,
		ScaleDecay: wl.Grad.ScaleDecay, OutlierFrac: wl.Grad.OutlierFrac, Seed: 1,
	}).Next()

	sumLog, n := 0.0, 0
	for _, x := range g {
		if x != 0 {
			sumLog += math.Log(math.Abs(x))
			n++
		}
	}
	const delta = 0.25 // the first-stage ratio at the paper's delta1
	want := core.ThresholdGammaExact(stats.MeanAbs(g), sumLog/float64(n), delta)

	s := core.New(core.Config{SID: core.SIDGammaGP, MaxStages: 1})
	if _, err := compress.FreshCompress(s, g, delta); err != nil {
		t.Fatal(err)
	}
	sel := s.LastSelection()
	if got := sel.Threshold; sel.Correction != compress.CorrectionNone || !(math.Abs(got-want) <= 1e-12*want) {
		t.Errorf("first-stage threshold %v (%+v), per-element reference %v: off by %g relative",
			got, sel, want, (got-want)/want)
	}
}
