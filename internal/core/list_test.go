package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sweepStep is one Sparsify the way it ran before the exceedance list
// carried indices: values-only exceedance lists built by the naive loop,
// and a FilterAboveThreshold sweep over g for every selection. It reads
// s's configuration and current stage count and touches nothing of s.
type sweepStep struct {
	idx     []int32
	vals    []float64
	eta     float64
	used    int
	rescued bool
}

func naiveAbove(x []float64, eta float64) []float64 {
	var out []float64
	for _, xi := range x {
		if a := math.Abs(xi); a > eta {
			out = append(out, a)
		}
	}
	return out
}

func sweepReference(s *SIDCo, g []float64, delta float64) (r sweepStep) {
	ref := New(s.cfg)
	k := compress.TargetK(len(g), delta)
	ratios := StageRatios(delta, s.cfg.Delta1, min(s.stages, s.maxStages(delta)))

	eta, beta := ref.firstStageThreshold(g, nil, ratios[0])
	r.used = 1
	switch {
	case !(eta > 0) || math.IsNaN(eta):
		eta = 0
	case len(ratios) > 1:
		exceed := naiveAbove(g, eta)
		for _, dm := range ratios[1:] {
			if len(exceed) < s.cfg.MinFitSize {
				break
			}
			next := ref.nextStageThreshold(exceed, eta, dm)
			if !(next > eta) || math.IsNaN(next) || math.IsInf(next, 0) {
				break
			}
			exceed = naiveAbove(exceed, next)
			eta = next
			r.used++
		}
	}
	r.idx, r.vals = tensor.FilterAboveThreshold(g, eta, nil, nil)
	if kHat := len(r.idx); kHat*3 < k || kHat > 3*k {
		if beta > 0 {
			eta += beta * math.Log(math.Max(1, float64(kHat))/float64(k))
			if eta < 0 {
				eta = 0
			}
			r.idx, r.vals = tensor.FilterAboveThreshold(g, eta, nil, nil)
			r.rescued = true
		}
		if kHat := len(r.idx); kHat*3 < k && beta > 0 {
			if etaFB := ThresholdExp(beta, delta); etaFB < eta {
				eta = etaFB
				r.idx, r.vals = tensor.FilterAboveThreshold(g, eta, nil, nil)
				r.rescued = true
			}
		}
	}
	r.eta = eta
	return r
}

// stepAgainstSweep runs one CompressInto at parallelism p and holds the
// selection, threshold, stage count and rescue flag to sweepReference's,
// bit for bit. It reports whether the final selection was read off the
// exceedance list (the threshold ended above the list's own).
func stepAgainstSweep(t *testing.T, what string, s *SIDCo, g []float64, delta float64) (fromList bool) {
	t.Helper()
	want := sweepReference(s, g, delta)
	dst := &tensor.Sparse{}
	if err := s.CompressInto(dst, g, delta); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if math.Float64bits(s.LastThreshold()) != math.Float64bits(want.eta) || s.LastStagesUsed() != want.used || s.LastRescued() != want.rescued {
		t.Fatalf("%s: eta %v used %d rescued %v, sweep reference %v %d %v", what,
			s.LastThreshold(), s.LastStagesUsed(), s.LastRescued(), want.eta, want.used, want.rescued)
	}
	if len(dst.Idx) != len(want.idx) || len(dst.Vals) != len(want.vals) {
		t.Fatalf("%s: selected %d, sweep reference %d (eta %v)", what, len(dst.Idx), len(want.idx), want.eta)
	}
	for i := range want.idx {
		if dst.Idx[i] != want.idx[i] || math.Float64bits(dst.Vals[i]) != math.Float64bits(want.vals[i]) {
			t.Fatalf("%s: selection[%d] = (%d, %v), sweep reference (%d, %v)", what, i, dst.Idx[i], dst.Vals[i], want.idx[i], want.vals[i])
		}
	}
	return s.lastEta > s.listEta
}

var allSIDs = []SID{SIDExponential, SIDGammaGP, SIDGP}

// atStages returns a compressor of family sid pinned at m stages.
func atStages(sid SID, m, p int) *SIDCo {
	s := New(Config{SID: sid, MaxStages: m})
	s.stages = m
	s.SetParallelism(p)
	return s
}

// plantFixedPoint sets g[pos] to f() and g[neg] to -f() until both sit on
// f() exactly: data values equal to a threshold that itself depends on
// the data.
func plantFixedPoint(t *testing.T, g []float64, pos, neg int, f func() float64) float64 {
	t.Helper()
	for i := 0; i < 100; i++ {
		eta := f()
		if g[pos] == eta && g[neg] == -eta {
			return eta
		}
		g[pos], g[neg] = eta, -eta
	}
	t.Fatal("no fixed point: threshold keeps moving with the planted value")
	return 0
}

// TestListSelectionEdges pins the > / >= edges between the exceedance
// list and the selection: a value equal to the final threshold is
// selected off the list, and a value equal to the first-stage threshold
// is not an exceedance, so the later fits never see it.
func TestListSelectionEdges(t *testing.T) {
	const d, delta = 40000, 0.001
	for _, sid := range allSIDs {
		for _, p := range []int{1, 3} {
			for m := 2; m <= 4; m++ {
				what := fmt.Sprintf("%v M=%d P=%d", sid, m, p)

				g := sampleVec(stats.Laplace{Scale: 0.01}, d, int64(10*m)+int64(sid))
				eta := plantFixedPoint(t, g, 123, 456, func() float64 {
					e, _, _ := atStages(sid, m, 1).estimateThreshold(g, nil, delta, m)
					return e
				})
				s := atStages(sid, m, p)
				if !stepAgainstSweep(t, what+" value == final eta", s, g, delta) || s.LastRescued() || s.LastStagesUsed() != m || s.LastThreshold() != eta {
					t.Fatalf("%s: value == final eta was not served from the list (used %d, rescued %v)", what, s.LastStagesUsed(), s.LastRescued())
				}

				g = sampleVec(stats.Laplace{Scale: 0.01}, d, int64(10*m)+int64(sid))
				eta1 := plantFixedPoint(t, g, 123, 456, func() float64 {
					e, _ := New(Config{SID: sid}).firstStageThreshold(g, nil, 0.25)
					return e
				})
				s = atStages(sid, m, p)
				stepAgainstSweep(t, what+" value == stage-1 eta", s, g, delta)
				for _, a := range s.exceed {
					if a == eta1 {
						t.Fatalf("%s: a value equal to the stage threshold is on the exceedance list", what)
					}
				}
			}
		}
	}
}

// TestListSelectionSpecialsAndLengths runs the special values and the
// block-boundary lengths through every family and stage count against
// the sweep reference.
func TestListSelectionSpecialsAndLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := func(d int) []float64 {
		g := make([]float64, d)
		for i := range g {
			g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
		return g
	}
	salted := func(d int, salt ...float64) []float64 {
		g := noise(d)
		for i := range g {
			if rng.Intn(5) == 0 {
				g[i] = salt[rng.Intn(len(salt))]
			}
		}
		return g
	}
	equal := make([]float64, 20000)
	tensor.Fill(equal, -0.5)
	inputs := map[string][]float64{
		"zeros-salted": salted(30000, 0, math.Copysign(0, -1)),
		"inf-salted":   salted(30000, math.Inf(1), math.Inf(-1), 0),
		"nan-salted":   salted(30000, math.NaN(), 0, math.Inf(1)),
		"one-inf":      append(noise(20000), math.Inf(-1)),
		"all-equal":    equal,
	}
	for _, d := range []int{1, 15, 4095, 4096, 4097} {
		inputs[fmt.Sprintf("len-%d", d)] = noise(d)
	}
	for name, g := range inputs {
		for _, sid := range allSIDs {
			for _, delta := range []float64{0.1, 0.001} {
				for m := 1; m <= 5; m++ {
					for _, p := range []int{1, 2} {
						stepAgainstSweep(t, fmt.Sprintf("%s %v delta=%v M=%d P=%d", name, sid, delta, m, p), atStages(sid, m, p), g, delta)
					}
				}
			}
		}
	}
}

// TestListSelectionEarlyStops pins the cases whose loop stops with the
// threshold at the list's own, where the selection must sweep g:
// MinFitSize ending the loop at stage 2, and a degenerate later fit.
func TestListSelectionEarlyStops(t *testing.T) {
	g := sampleVec(stats.Laplace{Scale: 0.01}, 200, 3)
	for _, sid := range allSIDs {
		s := atStages(sid, 3, 1)
		if stepAgainstSweep(t, fmt.Sprintf("%v MinFitSize", sid), s, g, 0.04) || s.LastStagesUsed() != 2 || s.LastRescued() {
			t.Fatalf("%v: want the loop stopped by MinFitSize at stage 2 and a sweep of g; used %d stages, list len %d, rescued %v", sid, s.LastStagesUsed(), len(s.exceed), s.LastRescued())
		}
	}

	// A final stage ratio of 1 makes every family's later stage return its
	// own location (the quantile at probability 0): next == eta, rejected.
	g = sampleVec(stats.Laplace{Scale: 0.01}, 30000, 4)
	for _, sid := range allSIDs {
		s := atStages(sid, 2, 2)
		if stepAgainstSweep(t, fmt.Sprintf("%v degenerate stage", sid), s, g, 0.25) || s.LastStagesUsed() != 1 || len(s.exceed) < s.cfg.MinFitSize {
			t.Fatalf("%v: want the stage-2 fit rejected and a sweep of g; used %d stages on a list of %d", sid, s.LastStagesUsed(), len(s.exceed))
		}
	}
}

// TestListSelectionRescueDirections pins the rescue pass on multi-stage
// estimates: a corrected threshold still above the list's — raised, or
// lowered by less than the last stage added — is served from the list;
// one lowered below it sweeps g.
func TestListSelectionRescueDirections(t *testing.T) {
	uniform, polluted, heavy := rescueInputs()
	for _, c := range []struct {
		name     string
		sid      SID
		m        int
		g        []float64
		raised   bool
		fromList bool
	}{
		{"raised", SIDExponential, 2, heavy, true, true},
		{"lowered, still above the list", SIDExponential, 2, polluted, false, true},
		{"lowered, still above the list", SIDGammaGP, 3, polluted, false, true},
		{"lowered, still above the list", SIDGP, 4, polluted, false, true},
		{"lowered below the list", SIDExponential, 3, uniform, false, false},
		{"lowered below the list", SIDExponential, 4, polluted, false, false},
	} {
		for _, p := range []int{1, 2} {
			what := fmt.Sprintf("%s: %v M=%d P=%d", c.name, c.sid, c.m, p)
			before, used, _ := atStages(c.sid, c.m, 1).estimateThreshold(c.g, nil, 0.001, c.m)
			s := atStages(c.sid, c.m, p)
			fromList := stepAgainstSweep(t, what, s, c.g, 0.001)
			if !s.LastRescued() || used != c.m || (s.LastThreshold() > before) != c.raised || fromList != c.fromList {
				t.Fatalf("%s: eta %v -> %v over a list at %v (rescued %v, %d stages), served from the list: %v",
					what, before, s.LastThreshold(), s.listEta, s.LastRescued(), used, fromList)
			}
		}
	}
}
