package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestRescueRecoversFromOutlierPollutedGPFit(t *testing.T) {
	// Extreme outliers explode the GP moment fit's variance and push the
	// single-call threshold so high that almost nothing is selected; the
	// two-tier rescue must bring the selection back within an order of
	// magnitude of the target.
	rng := rand.New(rand.NewSource(1))
	const d, delta = 200000, 0.001
	g := make([]float64, d)
	gen := stats.DoubleGamma{Shape: 0.55, Scale: 0.01}
	for i := range g {
		g[i] = gen.Sample(rng)
	}
	for j := 0; j < 10; j++ {
		g[rng.Intn(d)] = 50 * (rng.Float64() - 0.5)
	}
	s := NewGP()
	sp, err := compress.FreshCompress(s, g, delta)
	if err != nil {
		t.Fatal(err)
	}
	k := compress.TargetK(d, delta)
	ratio := float64(sp.NNZ()) / float64(k)
	if ratio < 0.1 {
		t.Errorf("rescue failed: ratio %v (selected %d of target %d)", ratio, sp.NNZ(), k)
	}
	if !s.LastRescued() {
		t.Error("expected the rescue pass to trigger")
	}
}

// rescueInputs builds the three vectors that collapse an estimate: no
// tail at all (the exponential and gamma fits select nothing), outliers
// that explode a moment fit's variance (under-selection), and a
// polynomial tail under an exponential fit (over-selection).
func rescueInputs() (uniform, polluted, heavy []float64) {
	rng := rand.New(rand.NewSource(5))
	uniform = make([]float64, 50000)
	for i := range uniform {
		uniform[i] = 2*rng.Float64() - 1
	}
	polluted = sampleVec(stats.DoubleGamma{Shape: 0.55, Scale: 0.01}, 200000, 1)
	for j := 0; j < 10; j++ {
		polluted[rng.Intn(len(polluted))] = 50 * (rng.Float64() - 0.5)
	}
	return uniform, polluted, sampleVec(stats.DoubleGP{Shape: 0.45, Scale: 0.01}, 100000, 6)
}

// TestRescueReusesFirstStageMean pins the rescue pass to what it computed
// when it re-scanned g for its scale: on a rescued case of every SID the
// final threshold is bit-equal to the two-tier correction replayed here
// from a fresh stats.MeanAbs(g), and the selection is that threshold's.
func TestRescueReusesFirstStageMean(t *testing.T) {
	uniform, polluted, heavy := rescueInputs()
	for _, c := range []struct {
		sid   SID
		g     []float64
		delta float64
	}{
		{SIDExponential, uniform, 0.001},
		{SIDGammaGP, uniform, 0.001},
		{SIDGP, polluted, 0.001},
		{SIDExponential, heavy, 0.001}, // over-selection: first tier only
	} {
		eta, _, _ := New(Config{SID: c.sid}).estimateThreshold(c.g, nil, c.delta, 1)
		k := compress.TargetK(len(c.g), c.delta)
		beta := stats.MeanAbs(c.g)
		kHat := tensor.CountAboveThreshold(c.g, eta)
		if kHat*3 >= k && kHat <= 3*k {
			t.Fatalf("%v: first stage selected %d of %d, not a rescue case", c.sid, kHat, k)
		}
		eta = math.Max(0, eta+beta*math.Log(math.Max(1, float64(kHat))/float64(k)))
		if kHat = tensor.CountAboveThreshold(c.g, eta); kHat*3 < k {
			eta = math.Min(eta, ThresholdExp(beta, c.delta))
		}
		wantIdx, wantVals := tensor.FilterAboveThreshold(c.g, eta, nil, nil)

		s := New(Config{SID: c.sid})
		sp, err := compress.FreshCompress(s, c.g, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		if !s.LastRescued() {
			t.Errorf("%v: rescue did not fire", c.sid)
		}
		if got := s.LastThreshold(); math.Float64bits(got) != math.Float64bits(eta) {
			t.Errorf("%v: rescued threshold %v, replayed from MeanAbs %v", c.sid, got, eta)
		}
		if len(sp.Idx) != len(wantIdx) {
			t.Fatalf("%v: selected %d, want %d", c.sid, len(sp.Idx), len(wantIdx))
		}
		for i := range wantIdx {
			if sp.Idx[i] != wantIdx[i] || sp.Vals[i] != wantVals[i] {
				t.Fatalf("%v: selection differs at %d", c.sid, i)
			}
		}
	}
}

func TestRescueNotTriggeredInNormalOperation(t *testing.T) {
	s := NewE()
	g := sampleVec(stats.Laplace{Scale: 0.01}, 100000, 2)
	if _, err := compress.FreshCompress(s, g, 0.01); err != nil {
		t.Fatal(err)
	}
	if s.LastRescued() {
		t.Error("rescue fired on a well-behaved gradient")
	}
}

func TestRescueBreaksErrorFeedbackSpiral(t *testing.T) {
	// Light-tailed (Gaussian) gradients under EC are the spiral scenario:
	// the exponential fit under-selects, the residual inflates the scale,
	// and without rescue the achieved ratio collapses toward zero. With
	// rescue the long-run ratio must stay healthy.
	ec := newECOverSIDCo()
	rng := rand.New(rand.NewSource(3))
	const d, delta = 2000, 0.05
	k := compress.TargetK(d, delta)
	sum := 0.0
	const iters = 120
	for i := 0; i < iters; i++ {
		g := make([]float64, d)
		for j := range g {
			g[j] = rng.NormFloat64() * 0.01
		}
		sp, err := compress.FreshCompress(ec, g, delta)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 20 {
			sum += float64(sp.NNZ()) / float64(k)
		}
	}
	avg := sum / float64(iters-20)
	if avg < 0.4 {
		t.Errorf("EC spiral not contained: mean ratio %v", avg)
	}
}

func newECOverSIDCo() compress.Compressor {
	return compress.NewErrorFeedback(NewE())
}

func TestStageRatiosProductProperty(t *testing.T) {
	f := func(deltaRaw, d1Raw float64, mRaw uint8) bool {
		delta := 1e-4 + math.Mod(math.Abs(deltaRaw), 0.999)
		d1 := 0.05 + math.Mod(math.Abs(d1Raw), 0.9)
		m := int(mRaw%8) + 1
		rs := StageRatios(delta, d1, m)
		prod := 1.0
		for _, r := range rs {
			if r <= 0 || r > 1 {
				return false
			}
			prod *= r
		}
		return math.Abs(prod-delta) < 1e-9*math.Max(1, delta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
