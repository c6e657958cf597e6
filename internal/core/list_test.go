package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sweepStep is one Sparsify the way it would run with no exceedance list
// in hand: values-only lists built by the naive loop, a sweep over g for
// every selection, and a sort for the exact k-th largest.
type sweepStep struct {
	idx  []int32
	vals []float64
	sel  compress.Selection
}

// naiveList is a values-only exceedance list: every magnitude of src that
// is > eta, with its excess moments summed in the order tensor.Excess
// defines (per 4096-block of src the kept run in four interleaved lanes,
// the tail in lane 0; block sums added in order).
type naiveList struct {
	mags []float64
	eta  float64
	ex   tensor.Excess
}

func naiveAbove(src []float64, eta float64) *naiveList {
	l := &naiveList{eta: eta}
	for lo := 0; lo < len(src); lo += 4096 {
		var s, q [4]float64
		first := len(l.mags)
		for _, x := range src[lo:min(lo+4096, len(src))] {
			if a := math.Abs(x); a > eta {
				l.mags = append(l.mags, a)
			}
		}
		kept := l.mags[first:]
		for j, a := range kept {
			lane := j % 4
			if j >= len(kept)/4*4 {
				lane = 0
			}
			s[lane] += a - eta
			q[lane] += (a - eta) * (a - eta)
		}
		l.ex.Sum += (s[0] + s[1]) + (s[2] + s[3])
		l.ex.SumSq += (q[0] + q[1]) + (q[2] + q[3])
	}
	return l
}

// naiveAbsKth is the k-th largest magnitude by sorting the bit patterns,
// the order tensor.Selector.AbsKth selects in (NaN above +Inf).
func naiveAbsKth(xs []float64, k int) float64 {
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(math.Abs(x))
	}
	slices.Sort(bits)
	return math.Float64frombits(bits[len(bits)-k])
}

// sweepSelect is the selection of everything above floor and at or above
// eta, read off g.
func sweepSelect(g []float64, floor, eta float64) (idx []int32, vals []float64) {
	for i, x := range g {
		if a := math.Abs(x); a > floor && a >= eta {
			idx, vals = append(idx, int32(i)), append(vals, x)
		}
	}
	return idx, vals
}

func sweepReference(cfg Config, g []float64, delta float64) (r sweepStep) {
	ref := New(cfg)
	k := compress.TargetK(len(g), delta)
	maxM := ref.maxStages(delta)
	ratio := ref.cfg.Delta1
	if !(delta < ratio) || maxM == 1 {
		ratio = delta
	}
	eta := ref.firstStageThreshold(g, nil, ratio)
	r.sel.Stages = 1

	var cur, prev *naiveList
	if ratio != delta && usable(eta) {
		cur = naiveAbove(g, eta)
		for r.sel.Stages < maxM {
			n := len(cur.mags)
			if n <= k || n < ref.cfg.MinFitSize {
				break
			}
			ratio = float64(k) / float64(n)
			final := !(ratio < ref.cfg.Delta1) || r.sel.Stages+1 == maxM
			if !final {
				ratio = ref.cfg.Delta1
			}
			next := ref.nextStageThreshold(&exceedList{mags: cur.mags, eta: cur.eta, ex: cur.ex}, ratio)
			if !(usable(next) && next > cur.eta) {
				break
			}
			eta = next
			r.sel.Stages++
			if final {
				break
			}
			cur, prev = naiveAbove(cur.mags, eta), cur
		}
	}

	switch {
	case cur != nil:
		r.idx, r.vals = sweepSelect(g, cur.eta, eta)
	case usable(eta):
		r.idx, r.vals = tensor.FilterAboveThreshold(g, eta, nil, nil)
	}
	r.sel.Threshold, r.sel.Estimated = eta, len(r.idx)
	if ref.inBand(len(r.idx), k) {
		return r
	}
	if cur != nil && len(cur.mags) < k {
		cur = prev
	}
	if cur != nil {
		r.sel.Threshold, r.sel.Correction = naiveAbsKth(cur.mags, k), compress.CorrectionList
		r.idx, r.vals = sweepSelect(g, cur.eta, r.sel.Threshold)
	} else {
		r.sel.Threshold, r.sel.Correction = naiveAbsKth(g, k), compress.CorrectionSweep
		r.idx, r.vals = tensor.FilterAboveThreshold(g, r.sel.Threshold, nil, nil)
	}
	return r
}

// sameSelection holds a selection and its report to the reference's, bit
// for bit.
func sameSelection(t *testing.T, what string, dst *tensor.Sparse, got compress.Selection, want sweepStep) {
	t.Helper()
	if math.Float64bits(got.Threshold) != math.Float64bits(want.sel.Threshold) || got.Stages != want.sel.Stages ||
		got.Estimated != want.sel.Estimated || got.Correction != want.sel.Correction {
		t.Fatalf("%s: selection report %+v, sweep reference %+v", what, got, want.sel)
	}
	if len(dst.Idx) != len(want.idx) || len(dst.Vals) != len(want.vals) {
		t.Fatalf("%s: selected %d, sweep reference %d (%+v)", what, len(dst.Idx), len(want.idx), got)
	}
	for i := range want.idx {
		if dst.Idx[i] != want.idx[i] || math.Float64bits(dst.Vals[i]) != math.Float64bits(want.vals[i]) {
			t.Fatalf("%s: selection[%d] = (%d, %v), sweep reference (%d, %v)", what, i, dst.Idx[i], dst.Vals[i], want.idx[i], want.vals[i])
		}
	}
}

// stepAgainstSweep runs one CompressInto and holds the selection and its
// report to sweepReference's.
func stepAgainstSweep(t *testing.T, what string, s *SIDCo, g []float64, delta float64) compress.Selection {
	t.Helper()
	want := sweepReference(s.cfg, g, delta)
	dst := &tensor.Sparse{}
	if err := s.CompressInto(dst, g, delta); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameSelection(t, what, dst, s.LastSelection(), want)
	return s.LastSelection()
}

var allSIDs = []SID{SIDExponential, SIDGammaGP, SIDGP}

// capped returns a compressor of family sid capped at m stages (0: the
// counts decide).
func capped(sid SID, m int) *SIDCo { return New(Config{SID: sid, MaxStages: m}) }

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
	const d, delta = 40000, 0.01
	k := compress.TargetK(d, delta)
	for _, sid := range allSIDs {
		for _, m := range []int{2, 3, 0} {
			what := fmt.Sprintf("%v MaxStages=%d", sid, m)

			g := sampleVec(stats.Laplace{Scale: 0.01}, d, int64(10*m)+int64(sid))
			eta := plantFixedPoint(t, g, 123, 456, func() float64 {
				e, _ := capped(sid, m).estimateThreshold(g, nil, delta, k)
				return e
			})
			s := capped(sid, m)
			if sel := stepAgainstSweep(t, what+" value == final eta", s, g, delta); sel.Correction != compress.CorrectionNone || sel.Threshold != eta {
				t.Fatalf("%s: want the estimate %v shipped as it is, got %+v", what, eta, sel)
			}

			g = sampleVec(stats.Laplace{Scale: 0.01}, d, int64(10*m)+int64(sid))
			eta1 := plantFixedPoint(t, g, 123, 456, func() float64 {
				return New(Config{SID: sid}).firstStageThreshold(g, nil, 0.25)
			})
			s = capped(sid, m)
			stepAgainstSweep(t, what+" value == stage-1 eta", s, g, delta)
			if (m == 2 && s.cur.eta != eta1) || slices.Contains(s.lists[0].mags, eta1) || slices.Contains(s.lists[1].mags, eta1) {
				t.Fatalf("%s: a value equal to the stage threshold is on the exceedance list", what)
			}
		}
	}
}

// TestListSelectionSpecialsAndLengths runs the special values and the
// block-boundary lengths through every family and stage cap against the
// sweep reference.
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
	for i := range equal {
		equal[i] = -0.5
	}
	inputs := map[string][]float64{
		"zeros-salted": salted(30000, 0, math.Copysign(0, -1)),
		"inf-salted":   salted(30000, math.Inf(1), math.Inf(-1), 0),
		"nan-salted":   salted(30000, math.NaN(), 0, math.Inf(1)),
		"one-inf":      append(noise(20000), math.Inf(-1)),
		"all-equal":    equal,
		"heavy":        sampleVec(stats.DoubleGP{Shape: 0.45, Scale: 0.01}, 1<<15+77, 6),
	}
	for _, d := range []int{1, 15, 4095, 4096, 4097} {
		inputs[fmt.Sprintf("len-%d", d)] = noise(d)
	}
	caps := []int{0, 1, 2, 3, 4, 5}
	if testing.Short() { // the race run: every branch of the plan, fewer repeats of it
		caps = []int{0, 1, 3}
	}
	for name, g := range inputs {
		for _, sid := range allSIDs {
			for _, delta := range []float64{0.25, 0.1, 0.001} {
				for _, m := range caps {
					stepAgainstSweep(t, fmt.Sprintf("%s %v delta=%v MaxStages=%d", name, sid, delta, m), capped(sid, m), g, delta)
				}
			}
		}
	}
}

// TestListSelectionEarlyStops pins the loops that stop at a list's own
// threshold: MinFitSize ending the loop at stage 2, where the whole list
// is the estimate and the exact threshold comes off it, and a stage-2 fit
// that degenerates.
func TestListSelectionEarlyStops(t *testing.T) {
	g := sampleVec(stats.Laplace{Scale: 0.01}, 200, 3)
	for _, sid := range allSIDs {
		s := capped(sid, 0)
		sel := stepAgainstSweep(t, fmt.Sprintf("%v MinFitSize", sid), s, g, 0.02)
		if sel.Stages != 2 || len(s.cur.mags) >= s.cfg.MinFitSize || sel.Estimated != len(s.cur.mags) || sel.Correction != compress.CorrectionList {
			t.Fatalf("%v: want the loop stopped by MinFitSize at stage 2 and the threshold taken off its list; got %+v over a list of %d", sid, sel, len(s.cur.mags))
		}
	}

	// A quarter of the vector near 1e200: the mean of the excesses over the
	// first cut is finite but its square is not, so the GP moment fit of
	// stage 2 sees a variance of Inf - Inf and is rejected. The loop keeps
	// the stage-1 threshold, the estimate is the whole list, and the exact
	// threshold comes off it. (Only a gamma first stage gets that far: the
	// other two families' first fits sum the same squares.)
	rng := rand.New(rand.NewSource(2))
	g = make([]float64, 30000)
	for i := range g {
		g[i] = rng.NormFloat64()
		if i%4 == 1 {
			g[i] = 1e200 * (1 + rng.Float64())
		}
	}
	s := capped(SIDGammaGP, 0)
	sel := stepAgainstSweep(t, "degenerate stage", s, g, 0.01)
	if sel.Stages != 1 || s.cur == nil || sel.Estimated != len(s.cur.mags) || sel.Estimated < 7500 || sel.Correction != compress.CorrectionList {
		t.Fatalf("want the stage-2 fit rejected and the threshold taken off the stage-1 list; got %+v", sel)
	}
}

// cliff is a vector built to make a Delta1 cut overshoot: most of it
// small, a tight cluster of n/4 values near 1, and a handful of large
// ones. The first stage lands between the small values and the cluster;
// the second, fitting a mean excess of about half the gap, lands beyond
// the cluster and leaves only the large ones.
func cliff(n, large int) []float64 {
	rng := rand.New(rand.NewSource(11))
	g := make([]float64, n)
	for i := range g {
		switch {
		case i%4 == 1:
			g[i] = 1 + 0.001*rng.Float64()
		case i%4 == 3 && i/4 < large:
			g[i] = -5 - rng.Float64()
		default:
			g[i] = 0.1 * (rng.Float64() - 0.5)
		}
	}
	return g
}

// TestListCorrectionDirections pins where the exact threshold comes from
// when an estimate misses the band: the list the last fit read when it
// still holds k elements (the estimate over- or under-selected), the list
// before it when the last cut overshot (the ping-pong kept it), and the
// gradient itself only when no list holds k.
func TestListCorrectionDirections(t *testing.T) {
	heavy := sampleVec(stats.DoubleGP{Shape: 0.45, Scale: 0.01}, 100000, 6)
	uniform := make([]float64, 50000)
	rng := rand.New(rand.NewSource(5))
	for i := range uniform {
		uniform[i] = 2*rng.Float64() - 1
	}
	for _, c := range []struct {
		name      string
		sid       SID
		m         int
		g         []float64
		delta     float64
		corr      compress.Correction
		raised    bool
		fromPrev  bool
		wantExact bool // no ties: exactly k shipped
	}{
		{"over-selection, from the last list", SIDExponential, 2, heavy, 0.001, compress.CorrectionList, true, false, true},
		{"under-selection, from the last list", SIDExponential, 2, uniform, 0.001, compress.CorrectionList, false, false, true},
		{"a cut that overshot, from the list before it", SIDExponential, 0, cliff(40000, 100), 0.01, compress.CorrectionList, false, true, true},
		{"single stage, no list", SIDExponential, 1, heavy, 0.001, compress.CorrectionSweep, true, false, true},
		{"ratio at delta1, no list", SIDExponential, 0, uniform, 0.25, compress.CorrectionSweep, true, false, true},
		{"first cut already below k", SIDExponential, 0, cliff(40000, 100), 0.3 * 0.25, compress.CorrectionList, false, false, true},
	} {
		k := compress.TargetK(len(c.g), c.delta)
		what := fmt.Sprintf("%s: %v MaxStages=%d", c.name, c.sid, c.m)
		before, _ := capped(c.sid, c.m).estimateThreshold(c.g, nil, c.delta, k)
		s := capped(c.sid, c.m)
		sel := stepAgainstSweep(t, what, s, c.g, c.delta)
		served := s.cur
		if served != nil && len(served.mags) < k {
			served = s.prev
		}
		if sel.Correction != c.corr || (sel.Threshold > before) != c.raised || (served != nil && served == s.prev) != c.fromPrev {
			t.Fatalf("%s: eta %v -> %v, report %+v, served from the list before the last: %v", what, before, sel.Threshold, sel, served == s.prev)
		}
		if got := tensor.CountAboveThreshold(c.g, sel.Threshold); c.wantExact && got != k {
			t.Fatalf("%s: corrected threshold selects %d, want exactly k = %d", what, got, k)
		}
	}
}

// TestListCorrectionReadsNoGradient runs the two halves of a step apart
// and, between them, poisons every element of g that is not on an
// exceedance list with a magnitude any sweep would select: a corrected
// selection must come off the lists alone.
func TestListCorrectionReadsNoGradient(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     []float64
		delta float64
		m     int
	}{
		{"last list", sampleVec(stats.DoubleGP{Shape: 0.45, Scale: 0.01}, 100000, 6), 0.001, 2},
		{"list before an overshoot", cliff(40000, 100), 0.01, 0},
	} {
		k := compress.TargetK(len(c.g), c.delta)
		want := sweepReference(Config{MaxStages: c.m}, c.g, c.delta)
		if want.sel.Correction != compress.CorrectionList {
			t.Fatalf("%s: reference %+v, want a list correction", c.name, want.sel)
		}

		g := tensor.Clone(c.g)
		s := capped(SIDExponential, c.m)
		eta, used := s.estimateThreshold(g, nil, c.delta, k)
		onList := make([]bool, len(g))
		for _, l := range []*exceedList{s.cur, s.prev} {
			if l != nil {
				for _, i := range l.idx[:len(l.mags)] {
					onList[i] = true
				}
			}
		}
		for i := range g {
			if !onList[i] {
				g[i] = math.Inf(1)
			}
		}
		dst := &tensor.Sparse{}
		sel := s.selectInBand(dst, g, eta, k)
		sel.Stages = used
		sameSelection(t, c.name, dst, sel, want)
	}
}

// TestListTiesAtCorrectedThreshold: values tied at the exact k-th largest
// magnitude all ship, so the selection stays a threshold selection and
// only ties can take it over the band.
func TestListTiesAtCorrectedThreshold(t *testing.T) {
	g := sampleVec(stats.DoubleGP{Shape: 0.45, Scale: 0.01}, 100000, 6)
	const delta = 0.001
	k := compress.TargetK(len(g), delta)
	kth := naiveAbsKth(g, k)
	for i := 0; i < 50; i++ {
		g[1000+i] = kth * float64(1-2*(i%2)) // 50 more at the k-th magnitude, both signs
	}
	for _, m := range []int{1, 2} { // sweep fallback, list correction
		s := capped(SIDExponential, m)
		sel := stepAgainstSweep(t, fmt.Sprintf("MaxStages=%d", m), s, g, delta)
		dst, _ := compress.FreshCompress(s, g, delta)
		if sel.Threshold != kth || dst.NNZ() != k+50 {
			t.Fatalf("MaxStages=%d: threshold %v selects %d, want the k-th largest %v and its %d ties", m, sel.Threshold, dst.NNZ(), kth, k+50)
		}
	}
}
