package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/simgrad"
	"repro/internal/tensor"
)

// hidden forwards compress.Compressor and nothing else, so ErrorFeedback
// sees no optional interface on it and takes the tensor.Add +
// CompressInto arm: the oracle the fused arm is held to.
type hidden struct{ compress.Compressor }

// fusedPair is EC over a SIDCo through the fused arm beside EC over an
// identically configured SIDCo through the unfused one.
type fusedPair struct {
	what         string
	delta        float64
	fused, plain *compress.ErrorFeedback
	sf, sp       *core.SIDCo
	df, dp       tensor.Sparse
}

// wireUnset marks the configurations that leave SetWireFormat alone.
const wireUnset = encoding.Format(255)

func newFusedPair(sid core.SID, delta float64, maxStages int, wire encoding.Format) *fusedPair {
	fp := &fusedPair{
		what:  fmt.Sprintf("%v delta=%v MaxStages=%d wire=%d", sid, delta, maxStages, wire),
		delta: delta,
		sf:    core.New(core.Config{SID: sid, MaxStages: maxStages}),
		sp:    core.New(core.Config{SID: sid, MaxStages: maxStages}),
	}
	fp.fused = compress.NewErrorFeedback(fp.sf)
	fp.plain = compress.NewErrorFeedback(hidden{fp.sp})
	if wire != wireUnset {
		fp.fused.SetWireFormat(wire)
		fp.plain.SetWireFormat(wire)
	}
	return fp
}

// step compresses g on both arms and holds everything observable equal:
// selection and residual by bit pattern, the selection report by value.
func (fp *fusedPair) step(t *testing.T, step int, g []float64) {
	t.Helper()
	errF := fp.fused.CompressInto(&fp.df, g, fp.delta)
	errP := fp.plain.CompressInto(&fp.dp, g, fp.delta)
	if errF != nil || errP != nil {
		t.Fatalf("%s step %d: fused err %v, unfused err %v", fp.what, step, errF, errP)
	}
	if fp.fused.LastSelection() != fp.sf.LastSelection() || fp.plain.LastSelection() != (compress.Selection{}) {
		t.Fatalf("%s step %d: error feedback forwards %+v for %+v, and %+v for an inner compressor with no report", fp.what, step,
			fp.fused.LastSelection(), fp.sf.LastSelection(), fp.plain.LastSelection())
	}
	if fp.sf.LastSelection() != fp.sp.LastSelection() {
		t.Fatalf("%s step %d: fused %+v, unfused %+v", fp.what, step, fp.sf.LastSelection(), fp.sp.LastSelection())
	}
	if len(fp.df.Idx) != len(fp.dp.Idx) || len(fp.df.Vals) != len(fp.dp.Vals) || fp.df.Dim != fp.dp.Dim {
		t.Fatalf("%s step %d: fused selected %d, unfused %d", fp.what, step, len(fp.df.Idx), len(fp.dp.Idx))
	}
	for i := range fp.dp.Idx {
		if fp.df.Idx[i] != fp.dp.Idx[i] || math.Float64bits(fp.df.Vals[i]) != math.Float64bits(fp.dp.Vals[i]) {
			t.Fatalf("%s step %d: selection[%d] = (%d, %v), unfused (%d, %v)", fp.what, step, i,
				fp.df.Idx[i], fp.df.Vals[i], fp.dp.Idx[i], fp.dp.Vals[i])
		}
	}
	rf, rp := fp.fused.Residual(), fp.plain.Residual()
	for i := range rp {
		if math.Float64bits(rf[i]) != math.Float64bits(rp[i]) {
			t.Fatalf("%s step %d: residual[%d] = %v, unfused %v", fp.what, step, i, rf[i], rp[i])
		}
	}
}

func profileGenerator(t *testing.T, workload string, dim int) *simgrad.Generator {
	t.Helper()
	wl, err := dist.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	return wl.Grad.Generator(dim, 17)
}

var (
	fusedSIDs      = []core.SID{core.SIDExponential, core.SIDGammaGP, core.SIDGP}
	fusedWorkloads = []string{"lstm-ptb", "vgg19-imagenet"}
)

const fusedSteps = 30

// TestFusedAccumulateMatchesUnfused is the equivalence grid of the fused
// error-feedback arm: every family, ratio, stage cap and wire rounding,
// 30 steps of two Table 1 gradient profiles each, at a dimension just past
// the radix-select floor and four reduce blocks. Under -short
// (the race run) it walks the grid with a stride coprime to every axis,
// which still visits every value of every axis.
func TestFusedAccumulateMatchesUnfused(t *testing.T) {
	const dim = 1<<14 + 27
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for _, workload := range fusedWorkloads {
		gen := profileGenerator(t, workload, dim)
		var steps [fusedSteps][]float64
		for i := range steps {
			steps[i] = gen.Next()
		}
		n := 0
		for _, sid := range fusedSIDs {
			for _, delta := range []float64{0.1, 0.01, 0.001} {
				for maxStages := 0; maxStages <= 4; maxStages++ {
					for _, wire := range []encoding.Format{wireUnset, encoding.FormatBitmap, encoding.FormatPairsBF16} {
						if n++; n%stride != 0 {
							continue
						}
						fp := newFusedPair(sid, delta, maxStages, wire)
						fp.what = workload + " " + fp.what
						for i, g := range steps {
							fp.step(t, i, g)
						}
					}
				}
			}
		}
	}
}

// TestFusedAccumulateMatchesUnfusedD2M is the same check at the step
// benchmark's dimension, one configuration per family and workload, all
// fed from one gradient stream so only one d-sized input is alive.
func TestFusedAccumulateMatchesUnfusedD2M(t *testing.T) {
	if testing.Short() {
		t.Skip("d = 2^21")
	}
	for _, workload := range fusedWorkloads {
		gen := profileGenerator(t, workload, 1<<21)
		pairs := []*fusedPair{
			newFusedPair(core.SIDExponential, 0.001, 5, encoding.FormatPairsBF16),
			newFusedPair(core.SIDGammaGP, 0.001, 0, wireUnset),
			newFusedPair(core.SIDGP, 0.01, 3, encoding.FormatBitmap),
		}
		g := make([]float64, 1<<21)
		for i := 0; i < fusedSteps; i++ {
			gen.Fill(g)
			for _, fp := range pairs {
				fp.step(t, i, g)
			}
		}
	}
}

// TestFusedAccumulateFailureCarriesWholeGradient is the EC failure
// contract on the real fused arm: a ratio SIDCo rejects before its sweep
// and a wire rounding that fails after it both leave residual == r + g,
// bit for bit, as the unfused arm does.
func TestFusedAccumulateFailureCarriesWholeGradient(t *testing.T) {
	g := profileGenerator(t, "lstm-ptb", 3*4096+5).Next()
	for _, sid := range fusedSIDs {
		for name, delta := range map[string]float64{"NaN ratio": math.NaN(), "zero ratio": 0, "ratio above 1": 1.5, "wire": 0.01} {
			fp := newFusedPair(sid, 0.01, 0, wireUnset)
			for i := 0; i < 3; i++ {
				fp.step(t, i, g)
			}
			want := tensor.Clone(fp.fused.Residual())
			tensor.Add(g, want)
			if name == "wire" {
				fp.fused.SetWireFormat(encoding.Format(200))
				fp.plain.SetWireFormat(encoding.Format(200))
			}
			errF := fp.fused.CompressInto(&fp.df, g, delta)
			errP := fp.plain.CompressInto(&fp.dp, g, delta)
			if errF == nil || errP == nil || errF.Error() != errP.Error() {
				t.Fatalf("%v %s: fused err %v, unfused err %v", sid, name, errF, errP)
			}
			for i := range want {
				if rf, rp := fp.fused.Residual()[i], fp.plain.Residual()[i]; math.Float64bits(rf) != math.Float64bits(want[i]) || math.Float64bits(rp) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s: residual[%d] = %v fused, %v unfused after a failed step, want r + g = %v", sid, name, i, rf, rp, want[i])
				}
			}
		}
	}
	// Empty input has nothing to add and is refused the same way.
	var dst tensor.Sparse
	errF := compress.NewErrorFeedback(core.NewE()).CompressInto(&dst, nil, 0.01)
	errP := compress.NewErrorFeedback(hidden{core.NewE()}).CompressInto(&dst, nil, 0.01)
	if errF == nil || errP == nil || errF.Error() != errP.Error() {
		t.Fatalf("empty gradient: fused err %v, unfused err %v", errF, errP)
	}
}
