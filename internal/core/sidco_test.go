package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func sampleVec(d Distribution, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

// Distribution aliases the stats interface for test brevity.
type Distribution = stats.Distribution

func TestThresholdExpExactOnLaplace(t *testing.T) {
	// For true Laplace(beta) data the closed form hits the exact
	// (1 - delta) quantile of |G| ~ Exp(beta).
	const beta = 0.02
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		eta := ThresholdExp(beta, delta)
		want := stats.Exponential{Scale: beta}.Quantile(1 - delta)
		if math.Abs(eta-want)/want > 1e-12 {
			t.Errorf("delta=%v: eta=%v want %v", delta, eta, want)
		}
	}
}

func TestThresholdGammaAgreesWithExactNearShapeOne(t *testing.T) {
	g := sampleVec(stats.DoubleGamma{Shape: 1.0, Scale: 0.5}, 200000, 1)
	mu, muLog := stats.GammaMoments(g)
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		approx := ThresholdGamma(mu, muLog, delta)
		exact := ThresholdGammaExact(mu, muLog, delta)
		if math.Abs(approx-exact)/exact > 0.05 {
			t.Errorf("delta=%v: approx %v vs exact %v", delta, approx, exact)
		}
	}
}

func TestThresholdGammaDegenerate(t *testing.T) {
	if got := ThresholdGamma(1, math.Log(1), 0.1); !math.IsNaN(got) {
		t.Errorf("s=0 should give NaN, got %v", got)
	}
}

func TestThresholdGPOnTrueGP(t *testing.T) {
	const shape, scale = 0.2, 0.05
	g := sampleVec(stats.DoubleGP{Shape: shape, Scale: scale}, 500000, 2)
	mu, v := stats.MeanVarAbs(g)
	for _, delta := range []float64{0.1, 0.01} {
		eta := ThresholdGP(mu, v, delta)
		want := stats.GeneralizedPareto{Shape: shape, Scale: scale}.Quantile(1 - delta)
		if math.Abs(eta-want)/want > 0.2 {
			t.Errorf("delta=%v: eta=%v want %v", delta, eta, want)
		}
	}
}

func TestThresholdGPShapeZeroFallsBackToExp(t *testing.T) {
	// Moments of an exponential give shape ~ 0; the threshold must match
	// the exponential closed form.
	p := stats.GPParams{Shape: 0, Scale: 0.3}
	got := thresholdGPParams(p, 0.01)
	want := ThresholdExp(0.3, 0.01)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GP shape-0 threshold %v, want %v", got, want)
	}
}

func TestSIDCoValidation(t *testing.T) {
	s := NewE()
	if _, err := compress.FreshCompress(s, nil, 0.1); err == nil {
		t.Error("empty gradient should error")
	}
	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := compress.FreshCompress(s, []float64{1, 2}, bad); err == nil {
			t.Errorf("ratio %v should error", bad)
		}
	}
}

func TestSIDCoNames(t *testing.T) {
	if NewE().Name() != "sidco-e" || NewGammaGP().Name() != "sidco-gp" || NewGP().Name() != "sidco-p" {
		t.Error("variant names wrong")
	}
	if SID(99).String() == "" {
		t.Error("unknown SID should still stringify")
	}
}

// runSIDCo streams iters fresh gradient vectors through the compressor and
// returns the mean ratio k-hat/k of what the estimate alone selected —
// what shipped is inside the band by construction, which it checks on
// every call (the streams are continuous: no ties).
func runSIDCo(t *testing.T, s *SIDCo, dist Distribution, d int, delta float64, iters int) float64 {
	t.Helper()
	k := compress.TargetK(d, delta)
	sum := 0.0
	for i := 0; i < iters; i++ {
		g := sampleVec(dist, d, int64(1000+i))
		sp, err := compress.FreshCompress(s, g, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !inBand(sp.NNZ(), k) {
			t.Fatalf("call %d shipped %d of k = %d, outside the band", i, sp.NNZ(), k)
		}
		sum += float64(s.LastSelection().Estimated) / float64(k)
	}
	return sum / float64(iters)
}

func TestSIDCoEAccurateOnLaplace(t *testing.T) {
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		avg := runSIDCo(t, NewE(), stats.Laplace{Scale: 0.01}, 100000, delta, 30)
		if math.Abs(avg-1) > 0.2 {
			t.Errorf("delta=%v: mean estimated ratio %v outside paper tolerance (eps=0.2)", delta, avg)
		}
	}
}

func TestSIDCoPAccurateOnGP(t *testing.T) {
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		avg := runSIDCo(t, NewGP(), stats.DoubleGP{Shape: 0.15, Scale: 0.01}, 100000, delta, 30)
		if math.Abs(avg-1) > 0.25 {
			t.Errorf("delta=%v: mean estimated ratio %v", delta, avg)
		}
	}
}

func TestSIDCoGammaGPAccurateOnDoubleGamma(t *testing.T) {
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		avg := runSIDCo(t, NewGammaGP(), stats.DoubleGamma{Shape: 0.7, Scale: 0.01}, 100000, delta, 30)
		if math.Abs(avg-1) > 0.3 {
			t.Errorf("delta=%v: mean estimated ratio %v", delta, avg)
		}
	}
}

func TestSIDCoAdaptsStagesUpForAggressiveRatio(t *testing.T) {
	// The stage count follows the counts of the step's own exceedance
	// lists: two stages reach delta = 0.1 from delta1 = 0.25, delta = 0.001
	// takes at least the five that 0.25 compounds down in, and what a
	// compressor saw before changes nothing.
	g := sampleVec(stats.DoubleGamma{Shape: 0.5, Scale: 0.01}, 100000, 1)
	s := NewE()
	stagesAt := func(delta float64) int {
		if _, err := compress.FreshCompress(s, g, delta); err != nil {
			t.Fatal(err)
		}
		return s.LastSelection().Stages
	}
	if m := stagesAt(0.1); m != 2 {
		t.Errorf("delta=0.1: %d stages, want 2", m)
	}
	m := stagesAt(0.001)
	if m < 5 || m > s.maxStages(0.001) {
		t.Errorf("delta=0.001: %d stages, want 5..%d", m, s.maxStages(0.001))
	}
	if again := stagesAt(0.1); again != 2 {
		t.Errorf("delta=0.1 after a delta=0.001 call: %d stages, want 2 (no state carries over)", again)
	}
}

func TestSIDCoStaysSingleStageAtModerateRatio(t *testing.T) {
	// At delta = 0.25 = delta1 there is only one possible stage.
	s := NewE()
	runSIDCo(t, s, stats.Laplace{Scale: 0.01}, 50000, 0.25, 5)
	if m := s.LastSelection().Stages; m != 1 {
		t.Errorf("stages = %d, want 1", m)
	}
}

func TestSIDCoStageCap(t *testing.T) {
	for _, maxM := range []int{1, 2, 3} {
		s := New(Config{SID: SIDExponential, MaxStages: maxM})
		runSIDCo(t, s, stats.DoubleGamma{Shape: 0.4, Scale: 0.01}, 50000, 0.001, 5)
		if m := s.LastSelection().Stages; m != maxM {
			t.Errorf("MaxStages = %d: ran %d stages", maxM, m)
		}
	}
}

func TestSIDCoBetterThanSingleStageAtAggressiveRatio(t *testing.T) {
	// Head-to-head on the estimates: count-driven multi-stage vs forced
	// single stage on gamma-distributed gradients at delta = 0.001 (the
	// Section 2.4 motivation).
	dist := stats.DoubleGamma{Shape: 0.5, Scale: 0.01}
	const d, delta = 100000, 0.001

	multiAvg := runSIDCo(t, NewE(), dist, d, delta, 30)
	singleAvg := runSIDCo(t, New(Config{SID: SIDExponential, MaxStages: 1}), dist, d, delta, 30)

	multiErr := math.Abs(math.Log(multiAvg))
	singleErr := math.Abs(math.Log(singleAvg))
	if multiErr >= singleErr {
		t.Errorf("multi-stage error %v (ratio %v) not better than single-stage %v (ratio %v)",
			multiErr, multiAvg, singleErr, singleAvg)
	}
}

func TestSIDCoLastThresholdPositive(t *testing.T) {
	s := NewE()
	g := sampleVec(stats.Laplace{Scale: 1}, 10000, 3)
	sp, err := compress.FreshCompress(s, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.LastSelection()
	if !(sel.Threshold > 0) || sel.Stages < 1 {
		t.Errorf("selection report %+v", sel)
	}
	if n := tensor.CountAboveThreshold(g, sel.Threshold); n != sp.NNZ() {
		t.Errorf("reported threshold selects %d, shipped %d", n, sp.NNZ())
	}
}

func TestSIDCoAllZeroGradient(t *testing.T) {
	s := NewE()
	g := make([]float64, 1000)
	sp, err := compress.FreshCompress(s, g, 0.01)
	if err != nil {
		t.Fatalf("all-zero gradient should not error: %v", err)
	}
	// Threshold estimation degenerates (beta = 0, eta = 0); everything
	// "exceeds" a zero threshold, which is safe (it keeps the vector).
	if sp.Dim != 1000 {
		t.Errorf("dim = %d", sp.Dim)
	}
}

func TestSIDCoTinyVector(t *testing.T) {
	s := NewE()
	sp, err := compress.FreshCompress(s, []float64{0.5, -0.1, 0.2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NNZ() == 0 {
		t.Error("tiny vector lost everything")
	}
}

func TestSIDCoDeterministicGivenSameStream(t *testing.T) {
	// Two identical compressor instances fed the same gradients produce
	// identical selections (the algorithm has no internal randomness).
	a, b := NewE(), NewE()
	for i := 0; i < 10; i++ {
		g := sampleVec(stats.Laplace{Scale: 0.02}, 20000, int64(50+i))
		sa, err := compress.FreshCompress(a, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := compress.FreshCompress(b, g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if sa.NNZ() != sb.NNZ() {
			t.Fatalf("iteration %d: nondeterministic NNZ %d vs %d", i, sa.NNZ(), sb.NNZ())
		}
		for j := range sa.Idx {
			if sa.Idx[j] != sb.Idx[j] || sa.Vals[j] != sb.Vals[j] {
				t.Fatalf("iteration %d: selections differ at %d", i, j)
			}
		}
	}
}

func TestSIDCoEstimationBeatsBaselineEstimators(t *testing.T) {
	// The headline claim of Figure 1c: SIDCo's mean estimation error is
	// far smaller than RedSync's and GaussianKSGD's on heavy-tailed
	// gradients with outliers at delta = 0.001. It is scored on what ships:
	// the outliers inflate the late stages' mean excess, and the exceedance
	// list puts the threshold back (TestInBandOnOutlierPollutedGPFit).
	rng := rand.New(rand.NewSource(60))
	const d, delta, iters = 100000, 0.001, 40
	k := compress.TargetK(d, delta)

	makeGrad := func() []float64 {
		g := make([]float64, d)
		for i := range g {
			mag := rng.ExpFloat64() * 0.01
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			g[i] = mag
		}
		// Outlier contamination stressing max-based heuristics.
		for j := 0; j < 5; j++ {
			g[rng.Intn(d)] = (rng.Float64() - 0.5) * 10
		}
		return g
	}

	meanAbsLogErr := func(c compress.Compressor) float64 {
		sum, n := 0.0, 0
		for i := 0; i < iters; i++ {
			sp, err := compress.FreshCompress(c, makeGrad(), delta)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(sp.NNZ()) / float64(k)
			if ratio <= 0 {
				ratio = 1e-6 // selected nothing: attribute a large error
			}
			if i >= 10 {
				sum += math.Abs(math.Log(ratio))
				n++
			}
		}
		return sum / float64(n)
	}

	sidcoErr := meanAbsLogErr(NewE())
	redsyncErr := meanAbsLogErr(compress.NewRedSync())
	gaussErr := meanAbsLogErr(compress.NewGaussianKSGD())

	if sidcoErr > 0.3 {
		t.Errorf("SIDCo-E mean |log ratio| = %v, want < 0.3", sidcoErr)
	}
	if sidcoErr*2 > redsyncErr {
		t.Errorf("SIDCo (%v) not clearly better than RedSync (%v)", sidcoErr, redsyncErr)
	}
	if sidcoErr*2 > gaussErr {
		t.Errorf("SIDCo (%v) not clearly better than GaussianKSGD (%v)", sidcoErr, gaussErr)
	}
}
