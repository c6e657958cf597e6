package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// bandCell accumulates one (estimator, ratio) cell of the band gate over
// the measured steps of one gradient stream.
type bandCell struct {
	name   string
	delta  float64
	ec     *compress.ErrorFeedback
	dst    tensor.Sparse
	n      int
	sum    float64 // of shipped k-hat/k
	max    float64
	rawSum float64 // of what the estimate alone selected, over k
	lists  int
	sweeps int
}

// TestEstimationQualityBand is the figure-level gate on the paper's
// estimation-quality claim (Alg. 1, Figs 4/9: k-hat/k inside 1 ± 0.2):
// every sidco-* variant on every Table 1 gradient profile at the three
// ratios, under error feedback, a fresh d = 2^18 gradient per step,
// measured over steps 15..90. What ships must have mean k-hat/k in
// [0.8, 1.25] and never exceed 1 + eps_H. The table it prints (-v) keeps
// the estimator's own quality visible behind that guarantee: the mean
// ratio of what the estimate alone selected, and the share of steps the
// exceedance list or a sweep of the gradient had to correct.
func TestEstimationQualityBand(t *testing.T) {
	const dim, first, last = 1 << 18, 15, 90
	workloads := dist.Table1()
	if testing.Short() {
		workloads = []dist.Workload{workloads[0], workloads[len(workloads)-1]} // lstm-ptb, vgg19-imagenet: the step benchmark's
	}
	tbl := NewTable(fmt.Sprintf("Estimation quality under EC, d=%d, steps %d..%d: shipped k-hat/k mean (max) | estimate alone | list-corrected, sweep-fallback steps", dim, first, last),
		"profile", "estimator", "delta=0.1", "delta=0.01", "delta=0.001")
	for _, wl := range workloads {
		gen := wl.Grad.Generator(dim, 3)
		var cells []*bandCell
		for _, name := range []string{"sidco-e", "sidco-gp", "sidco-p"} {
			for _, delta := range Ratios {
				cells = append(cells, &bandCell{name: name, delta: delta, ec: compress.NewErrorFeedback(MustCompressor(name, 1))})
			}
		}
		// One stream feeds all nine cells in lockstep: generating a
		// gradient costs several compressions of it.
		g := make([]float64, dim)
		for step := 0; step < last; step++ {
			gen.Fill(g)
			for _, c := range cells {
				if err := c.ec.CompressInto(&c.dst, g, c.delta); err != nil {
					t.Fatal(err)
				}
				if step < first {
					continue
				}
				k := float64(compress.TargetK(dim, c.delta))
				sel := c.ec.LastSelection()
				ratio := float64(c.dst.NNZ()) / k
				c.n++
				c.sum += ratio
				c.max = max(c.max, ratio)
				c.rawSum += float64(sel.Estimated) / k
				switch sel.Correction {
				case compress.CorrectionList:
					c.lists++
				case compress.CorrectionSweep:
					c.sweeps++
				}
			}
		}
		for i := 0; i < len(cells); i += len(Ratios) {
			row := []string{wl.Name, cells[i].name}
			for _, c := range cells[i : i+len(Ratios)] {
				mean := c.sum / float64(c.n)
				row = append(row, fmt.Sprintf("%.2f (%.2f) | %.2f | %d%%, %d%%", mean, c.max, c.rawSum/float64(c.n), 100*c.lists/c.n, 100*c.sweeps/c.n))
				if mean < 0.8 || mean > 1.25 || c.max > 1+core.Epsilon {
					t.Errorf("%s %s delta=%v: shipped k-hat/k mean %.3f, max %.3f; want mean in [0.8, 1.25] and max <= %.2f", wl.Name, c.name, c.delta, mean, c.max, 1+core.Epsilon)
				}
			}
			tbl.AddRow(row...)
		}
	}
	var out bytes.Buffer
	tbl.Render(&out)
	t.Log("\n" + out.String())
}
