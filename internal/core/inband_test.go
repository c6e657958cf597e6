package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/simgrad"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// TestInBandOnOutlierPollutedGPFit: extreme outliers explode the variance
// of a GP moment fit and inflate the mean excess of every late stage, so
// the estimate selects a fraction of k. The first cut, at delta1, still
// leaves a list that holds k, so the exact threshold comes off a list —
// never off the gradient — and exactly k ship.
func TestInBandOnOutlierPollutedGPFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const d, delta = 200000, 0.001
	g := sampleVec(stats.DoubleGamma{Shape: 0.55, Scale: 0.01}, d, 1)
	for j := 0; j < 10; j++ {
		g[rng.Intn(d)] = 50 * (rng.Float64() - 0.5)
	}
	k := compress.TargetK(d, delta)
	for _, sid := range []SID{SIDGammaGP, SIDGP} {
		s := New(Config{SID: sid})
		sp, err := compress.FreshCompress(s, g, delta)
		if err != nil {
			t.Fatal(err)
		}
		sel := s.LastSelection()
		if sp.NNZ() != k || sel.Correction != compress.CorrectionList || sel.Estimated*2 > k {
			t.Errorf("%v: shipped %d of k = %d (%+v); want an estimate under k/2 corrected from a list to exactly k", sid, sp.NNZ(), k, sel)
		}
	}
}

func TestNoCorrectionOnWellBehavedGradient(t *testing.T) {
	s := NewE()
	g := sampleVec(stats.Laplace{Scale: 0.01}, 100000, 2)
	sp, err := compress.FreshCompress(s, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sel := s.LastSelection(); sel.Correction != compress.CorrectionNone || sel.Estimated != sp.NNZ() {
		t.Errorf("a well-behaved gradient was corrected: %+v, shipped %d", sel, sp.NNZ())
	}
}

// TestInBandUnderErrorFeedback: light-tailed (Gaussian) gradients under EC
// are the spiral scenario — an exponential fit under-selects, the residual
// inflates the fitted scale, and the next threshold lands higher still.
// Every call must ship inside the band, the first included.
func TestInBandUnderErrorFeedback(t *testing.T) {
	s := NewE()
	ec := compress.NewErrorFeedback(s)
	rng := rand.New(rand.NewSource(3))
	const d, delta = 2000, 0.05
	k := compress.TargetK(d, delta)
	g := make([]float64, d)
	for i := 0; i < 120; i++ {
		for j := range g {
			g[j] = rng.NormFloat64() * 0.01
		}
		sp, err := compress.FreshCompress(ec, g, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !s.inBand(sp.NNZ(), k) {
			t.Fatalf("call %d shipped %d of k = %d (%+v)", i, sp.NNZ(), k, s.LastSelection())
		}
	}
}

// poolRun is the step benchmark's gradient loop in small: error feedback
// over a pool of six vectors of a Table 1 profile, cycled.
type poolRun struct {
	s    *SIDCo
	ec   *compress.ErrorFeedback
	pool [][]float64
	dst  tensor.Sparse
}

func newPoolRun(sid SID, profile simgrad.Config) *poolRun {
	r := &poolRun{s: New(Config{SID: sid})}
	r.ec = compress.NewErrorFeedback(r.s)
	gen := simgrad.New(profile)
	for i := 0; i < 6; i++ {
		r.pool = append(r.pool, gen.Next())
	}
	return r
}

func (r *poolRun) step(t *testing.T, i int, delta float64) {
	t.Helper()
	if err := r.ec.CompressInto(&r.dst, r.pool[i%len(r.pool)], delta); err != nil {
		t.Fatal(err)
	}
}

var poolProfiles = map[string]simgrad.Config{
	// The gradient marginals of dist's lstm-ptb and vgg19-imagenet
	// workloads, the step benchmark's two gradient profiles.
	"double-gamma": {Family: simgrad.FamilyDoubleGamma, Shape: 0.55, Scale: 0.012, ScaleDecay: 0.002, SharpenRate: 0.001, OutlierFrac: 5e-6},
	"double-gp":    {Family: simgrad.FamilyDoubleGP, Shape: 0.2, Scale: 0.01, ScaleDecay: 0.001, OutlierFrac: 5e-6},
}

// TestInBandOnEveryCallOfAPoolRun: 200 error-fed steps over a pool, every
// family, profile and ratio: the first call and every later one ship
// inside the band, and no call needs the O(d) fallback once a list is
// built (ratios below delta1).
func TestInBandOnEveryCallOfAPoolRun(t *testing.T) {
	const d = 1 << 16
	steps := 200
	if testing.Short() {
		steps = 40
	}
	for name, profile := range poolProfiles {
		profile.Dim, profile.Seed = d, 9
		for _, sid := range allSIDs {
			for _, delta := range []float64{0.1, 0.01, 0.001} {
				r := newPoolRun(sid, profile)
				k := compress.TargetK(d, delta)
				lists, sweeps := 0, 0
				for i := 0; i < steps; i++ {
					r.step(t, i, delta)
					sel := r.s.LastSelection()
					if !r.s.inBand(r.dst.NNZ(), k) {
						t.Fatalf("%s %v delta=%v call %d: shipped %d of k = %d (%+v)", name, sid, delta, i, r.dst.NNZ(), k, sel)
					}
					switch sel.Correction {
					case compress.CorrectionList:
						lists++
					case compress.CorrectionSweep:
						sweeps++
					}
				}
				if sweeps > 0 {
					t.Errorf("%s %v delta=%v: %d of %d calls fell back to a sweep of the gradient (%d corrected from a list)", name, sid, delta, sweeps, steps, lists)
				}
			}
		}
	}
}

// TestPoolRunSteadyStateAllocs: once the scratch has grown, an error-fed
// step allocates nothing — list corrections included.
func TestPoolRunSteadyStateAllocs(t *testing.T) {
	for name, profile := range poolProfiles {
		profile.Dim, profile.Seed = 1<<16, 9
		for _, sid := range allSIDs {
			r := newPoolRun(sid, profile)
			i, corrected := 0, 0
			step := func() {
				r.step(t, i, 0.01)
				if r.s.LastSelection().Correction != compress.CorrectionNone {
					corrected++
				}
				i++
			}
			for i < 60 {
				step()
			}
			if n := testing.AllocsPerRun(30, step); n != 0 {
				t.Errorf("%s %v: %v allocations per steady-state step (%d of %d corrected)", name, sid, n, corrected, i)
			}
		}
	}
}

func TestSIDCoSelectionIsTopKHatOfGradient(t *testing.T) {
	// Footnote 5 of the paper: threshold selection coincides with Top-k at
	// k = k-hat. Verify: every selected magnitude >= every dropped one.
	s := NewE()
	g := sampleVec(stats.Laplace{Scale: 0.01}, 50000, 4)
	sp, err := compress.FreshCompress(s, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	minKept := math.Inf(1)
	kept := make(map[int32]struct{}, sp.NNZ())
	for i, j := range sp.Idx {
		kept[j] = struct{}{}
		if a := math.Abs(sp.Vals[i]); a < minKept {
			minKept = a
		}
	}
	for i, gi := range g {
		if _, ok := kept[int32(i)]; ok {
			continue
		}
		if math.Abs(gi) > minKept {
			t.Fatalf("dropped element %d (|%v|) larger than kept minimum %v", i, gi, minKept)
		}
	}
}
