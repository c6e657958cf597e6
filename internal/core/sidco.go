// Package core implements SIDCo, the sparsity-inducing distribution based
// compressor of the paper: single-stage closed-form threshold estimators
// for the three SIDs (double exponential, double gamma, double generalized
// Pareto), the multi-stage peak-over-threshold refinement of Section 2.4,
// and a per-step, count-calibrated stage plan with an in-band selection
// guarantee in place of Algorithm 1's cross-step stage controller.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// errEmptyGradient is hoisted to package level so the zero-alloc
// CompressInto hot path can reject empty input without constructing an
// error value per call.
var errEmptyGradient = errors.New("sidco: empty gradient")

// SID selects the sparsity-inducing distribution family used for fitting.
type SID int

const (
	// SIDExponential is multi-stage double-exponential fitting (SIDCo-E).
	// Exceedances of an exponential remain exponential (Corollary 2.1), so
	// every stage refits the same family.
	SIDExponential SID = iota
	// SIDGammaGP fits a double gamma in the first stage and generalized
	// Pareto in later stages per extreme value theory (SIDCo-GP).
	SIDGammaGP
	// SIDGP is multi-stage generalized Pareto fitting (SIDCo-P).
	SIDGP
)

// String returns the paper's name for the variant.
func (s SID) String() string {
	switch s {
	case SIDExponential:
		return "sidco-e"
	case SIDGammaGP:
		return "sidco-gp"
	case SIDGP:
		return "sidco-p"
	default:
		return fmt.Sprintf("sid(%d)", int(s))
	}
}

// Epsilon bounds the shipped selection (paper Section 4.1: epsilon = 20%,
// the estimation-quality band): an estimate whose count falls outside
// [k(1-Epsilon), k(1+Epsilon)] is replaced by the exact k-th largest
// magnitude of the exceedance list. Values tied at that magnitude are all
// kept, so only ties can exceed the band.
const Epsilon float64 = 0.2

// minFitSize is the smallest exceedance set a later stage will fit; below
// it the multi-stage loop stops early.
const minFitSize = 16

// Config holds the SIDCo hyper-parameters; a zero field takes the paper's
// value (Section 4.1: delta1 = 0.25).
type Config struct {
	// SID is the distribution family.
	SID SID
	// Delta1 is the compression ratio every stage but the final one cuts
	// at (paper default 0.25); the final stage cuts at whatever ratio the
	// list it fits still has to lose, k/len(list), which lies in [Delta1, 1).
	Delta1 float64
	// MaxStages caps the number of fitting stages. Zero leaves the count
	// to the exceedance counts, up to twice what compounding Delta1 down
	// to the target ratio needs; 1 is single-stage fitting over the whole
	// gradient.
	MaxStages int
	// ApproxGamma selects the paper's closed-form gamma threshold
	// approximation (eq. 15) for the first stage of SIDCo-GP instead of
	// the exact inverse incomplete gamma quantile. The approximation is an
	// upper bound that is tight only near shape 1 — the paper attributes
	// SIDCo-GP's first-stage estimation error to it (Appendix E.1) — so
	// the default here is the exact quantile. It is an accuracy knob, not
	// a speed knob: at d = 2^21, with the error-feedback add riding it, the
	// moment pass over g costs 3.2 ms in its AVX2 body and 5.0 ms in the
	// Go loop (medians, two loaded cores of a 2-vCPU Xeon; 21 ms while it
	// took a math.Log per element) against 0.55 µs for the exact Newton
	// solve and 0.065 µs for the closed form.
	ApproxGamma bool
}

// exceedList is one exceedance list of the multi-stage loop: every |x| >
// eta beside its index, in index order, with the excess moments the next
// stage's fit reads instead of the list.
type exceedList struct {
	mags []float64
	idx  []int32
	eta  float64
	ex   tensor.Excess
}

// grow gives an empty list room for n pairs.
func (l *exceedList) grow(n int) {
	l.mags, l.idx = make([]float64, 0, n), make([]int32, 0, n) //sidco:alloc first call only; steady state reuses the lists
}

// SIDCo is the multi-stage threshold compressor. It implements
// compress.Compressor and carries nothing from one call to the next but
// scratch: the stage plan follows the counts of the step's own exceedance
// lists, so two instances fed the same vector select the same elements
// whatever either saw before. It is not safe for concurrent use; each
// worker owns one instance.
type SIDCo struct {
	cfg  Config
	last compress.Selection // the most recent call, for LastSelection

	// Scratch, reused across iterations. The stage loop ping-pongs the two
	// lists: cur is the one the last fit read (nil: none was built), prev
	// the one it was compacted from (nil: cur came off the gradient), kept
	// so that a cut that leaves fewer than k elements costs a list pass,
	// not a sweep.
	lists     [2]exceedList
	cur, prev *exceedList

	sel tensor.Selector
}

// New creates a SIDCo compressor from cfg (missing fields defaulted).
func New(cfg Config) *SIDCo {
	if cfg.Delta1 <= 0 || cfg.Delta1 >= 1 {
		cfg.Delta1 = 0.25
	}
	return &SIDCo{cfg: cfg}
}

// NewE returns SIDCo with multi-stage double-exponential fitting.
func NewE() *SIDCo { return New(Config{SID: SIDExponential}) }

// NewGammaGP returns SIDCo with gamma-then-GP fitting.
func NewGammaGP() *SIDCo { return New(Config{SID: SIDGammaGP}) }

// NewGP returns SIDCo with multi-stage GP fitting.
func NewGP() *SIDCo { return New(Config{SID: SIDGP}) }

// Name implements compress.Compressor.
func (s *SIDCo) Name() string { return s.cfg.SID.String() }

// LastSelection implements compress.SelectionReporter: the threshold the
// most recent CompressInto shipped, the fitting stages it ran, what the
// estimate alone would have selected and whether the band check replaced
// it.
func (s *SIDCo) LastSelection() compress.Selection { return s.last }

// maxStages returns the stage cap for the given target ratio: MaxStages
// when set, otherwise twice the count at which Delta1 per stage compounds
// down to delta — room for stages that cut less than they aimed for, and
// a bound on a loop whose fits barely move.
func (s *SIDCo) maxStages(delta float64) int {
	if s.cfg.MaxStages > 0 {
		return s.cfg.MaxStages
	}
	return 2 * (1 + int(math.Floor(math.Log(delta)/math.Log(s.cfg.Delta1))))
}

// CompressInto implements compress.Compressor: Algorithm 1's Sparsify
// over caller-owned sparse storage, with the fit and exceedance scratch
// reused across iterations.
//
//sidco:hotpath
func (s *SIDCo) CompressInto(dst *tensor.Sparse, g []float64, delta float64) error {
	return s.compress(dst, g, nil, delta)
}

// CompressAccumulateInto implements compress.AccumulateCompressor:
// tensor.Add(g, acc) then CompressInto(dst, acc, delta), bit for bit, with
// the add riding the first-stage moment sweep. len(acc) must equal len(g).
//
//sidco:hotpath
func (s *SIDCo) CompressAccumulateInto(dst *tensor.Sparse, acc, g []float64, delta float64) error {
	if len(acc) != len(g) {
		panic("sidco: CompressAccumulateInto length mismatch")
	}
	return s.compress(dst, acc, g, delta)
}

// compress is Sparsify over g, or over g += add when add is not nil.
func (s *SIDCo) compress(dst *tensor.Sparse, g, add []float64, delta float64) error {
	if len(g) == 0 {
		return errEmptyGradient
	}
	if math.IsNaN(delta) || delta <= 0 || delta > 1 {
		if add != nil {
			tensor.Add(add, g) // no sweep will carry it
		}
		return fmt.Errorf("sidco: ratio %v outside (0, 1]", delta) //sidco:alloc input-validation error path, not steady state
	}
	k := compress.TargetK(len(g), delta)
	eta, used := s.estimateThreshold(g, add, delta, k)
	s.last = s.selectInBand(dst, g, eta, k)
	s.last.Stages = used
	return nil
}

// estimateThreshold runs the multi-stage fitting loop over g (+= add, in
// the first-stage sweep) and returns the final threshold with the number
// of stages fitted.
//
// The plan follows counts, not nominal ratios. Below Delta1 the first
// stage always cuts at Delta1 and gathers the exceedance list; from there
// the ratio still to lose is k/len(list), known exactly, so another
// Delta1 stage runs while that is below Delta1 and a final stage at
// exactly k/len(list) ends the loop. A stage's estimation error is thus
// measured and handed to the next stage instead of compounding, and the
// final fit extrapolates over a ratio in [Delta1, 1). The loop leaves the
// list the last fit read in s.cur — the returned threshold is at or above
// that list's own — and the one before it in s.prev.
func (s *SIDCo) estimateThreshold(g, add []float64, delta float64, k int) (eta float64, used int) {
	s.cur, s.prev = nil, nil
	maxM := s.maxStages(delta)
	ratio := s.cfg.Delta1
	if !(delta < ratio) || maxM == 1 {
		ratio = delta // one stage over the whole gradient, no list
	}
	eta = s.firstStageThreshold(g, add, ratio)
	if ratio == delta || !usable(eta) {
		return eta, 1
	}

	first := &s.lists[0]
	if cap(first.mags) == 0 {
		// Cold: one allocation each, with room for cuts half again as wide
		// as they aim to be, not append's ladder up to them — a set-up cost
		// several steps long at d = 2^21.
		n := 1.5 * s.cfg.Delta1 * float64(len(g))
		first.grow(int(n))
		s.lists[1].grow(int(n * s.cfg.Delta1))
	}
	first.mags, first.idx, first.ex = tensor.PairsAboveThreshold(g, eta, 0, first.mags[:0], first.idx[:0])
	first.eta = eta
	s.cur = first
	for used = 1; used < maxM; {
		cur := s.cur
		n := len(cur.mags)
		if n <= k || n < minFitSize {
			break
		}
		ratio = float64(k) / float64(n)
		final := !(ratio < s.cfg.Delta1) || used+1 == maxM
		if !final {
			ratio = s.cfg.Delta1
		}
		next := s.nextStageThreshold(cur, ratio)
		if !(usable(next) && next > cur.eta) {
			break // fit degenerated; keep the last sound threshold
		}
		eta = next
		used++
		if final {
			break
		}
		into := &s.lists[0]
		if into == cur {
			into = &s.lists[1]
		}
		into.mags, into.idx, into.ex = tensor.CompactPairsAbove(into.mags[:0], into.idx[:0], cur.mags, cur.idx, eta)
		into.eta = eta
		s.cur, s.prev = into, cur
	}
	return eta, used
}

// usable reports whether a fitted threshold can cut anything: positive and
// finite (a NaN fails the comparison).
func usable(eta float64) bool { return eta > 0 && !math.IsInf(eta, 1) }

// inBand reports whether a selection of n elements is within the
// tolerance band around the target k.
func inBand(n, k int) bool {
	return float64(n) >= float64(k)*(1-Epsilon) && float64(n) <= float64(k)*(1+Epsilon)
}

// selectInBand writes the selection |g_i| >= eta into dst and, if its
// count misses the band, replaces it by the exact answer from the least
// data that holds it: eta becomes the k-th largest magnitude of the
// smallest exceedance list with at least k elements — O(list), a few k
// long — or, with no such list (a single-stage call, a degenerate first
// fit, a first cut that already overshot), of g itself, which costs the
// O(d) select and sweep a Top-k compressor pays every step.
//
//sidco:hotpath
func (s *SIDCo) selectInBand(dst *tensor.Sparse, g []float64, eta float64, k int) compress.Selection {
	dst.Reset(len(g))
	switch {
	case s.cur != nil:
		selectFromList(dst, g, s.cur, eta)
	case usable(eta):
		dst.Idx, dst.Vals = tensor.FilterAboveThreshold(g, eta, dst.Idx, dst.Vals)
	}
	sel := compress.Selection{Threshold: eta, Estimated: dst.NNZ()}
	if inBand(sel.Estimated, k) {
		return sel
	}

	list := s.cur
	if list != nil && len(list.mags) < k {
		list = s.prev
	}
	dst.Reset(len(g))
	if list != nil {
		sel.Threshold = s.sel.AbsKth(list.mags, k)
		sel.Correction = compress.CorrectionList
		selectFromList(dst, g, list, sel.Threshold)
	} else {
		sel.Threshold = s.sel.AbsKth(g, k)
		sel.Correction = compress.CorrectionSweep
		dst.Idx, dst.Vals = tensor.FilterAboveThreshold(g, sel.Threshold, dst.Idx, dst.Vals)
	}
	return sel
}

// selectFromList writes the list's elements with magnitude >= eta into
// dst, which selectInBand has just Reset, in index order. Everything >= eta
// is on the list while eta is above the list's own threshold; at it, the
// selection is the whole list (a value equal to a stage threshold is not
// an exceedance).
//
// Like tensor.PairsAboveThreshold it stores every entry's pair at the
// cursor and advances the cursor by the compare, so no branch depends on
// a magnitude: dst is grown once to the list's length (and a quarter more
// when it grows, so lists that wander do not regrow it) and cut to the
// cursor at the end. It stays out of line, as pairsAbove does, so that no
// caller's frame can put the cursor on the stack.
//
//go:noinline
//sidco:hotpath
func selectFromList(dst *tensor.Sparse, g []float64, l *exceedList, eta float64) {
	n := len(l.mags)
	if cap(dst.Idx) < n || cap(dst.Vals) < n {
		dst.Grow(n + n/4)
	}
	outI, outV, idx := dst.Idx[:n], dst.Vals[:n], l.idx[:n]
	m := 0
	for i, a := range l.mags {
		j := idx[i]
		outI[m], outV[m] = j, g[j]
		if a >= eta {
			m++ // a conditional move, not a branch
		}
	}
	dst.Idx, dst.Vals = outI[:m], outV[:m]
}

// firstStageThreshold computes the single-stage threshold from the full
// gradient (Thresh_Estimation in Algorithm 1) in one moment pass over g,
// which performs g += add on the way when add is not nil.
func (s *SIDCo) firstStageThreshold(g, add []float64, delta float64) float64 {
	switch s.cfg.SID {
	case SIDExponential:
		return ThresholdExp(stats.AccumulateMeanAbs(g, add), delta)
	case SIDGammaGP:
		mu, muLog := stats.AccumulateGammaMoments(g, add)
		if s.cfg.ApproxGamma {
			return ThresholdGamma(mu, muLog, delta)
		}
		return ThresholdGammaExact(mu, muLog, delta)
	case SIDGP:
		mu, v := stats.AccumulateMeanVarAbs(g, add)
		return ThresholdGP(mu, v, delta)
	default:
		if add != nil {
			tensor.Add(add, g)
		}
		return math.NaN()
	}
}

// nextStageThreshold computes the next stage's threshold from the excess
// moments of the exceedances over l.eta (Lemma 2 / Corollary 2.1).
func (s *SIDCo) nextStageThreshold(l *exceedList, delta float64) float64 {
	n := float64(len(l.mags))
	switch s.cfg.SID {
	case SIDExponential:
		return ThresholdExp(l.ex.Sum/n, delta) + l.eta
	case SIDGammaGP, SIDGP:
		return thresholdGPParams(stats.FitGPExcess(l.ex.Sum, l.ex.SumSq, n), delta) + l.eta
	default:
		return math.NaN()
	}
}

// ThresholdExp is the closed-form double-exponential threshold of
// Corollary 1.1: eta = beta * log(1/delta), with beta the MLE scale
// (mean absolute gradient).
func ThresholdExp(beta, delta float64) float64 {
	return float64(beta * math.Log(1/delta)) // rounded: callers add to it
}

// ThresholdGamma is the closed-form approximation of Corollary 1.2:
// eta ~= -beta*(log(delta) + logGamma(alpha)), with (alpha, beta) the
// Minka closed-form gamma fit computed from the mean and log-mean of the
// absolute gradients. A degenerate fit gives NaN.
func ThresholdGamma(meanAbs, meanLogAbs, delta float64) float64 {
	p := stats.GammaFromMoments(meanAbs, meanLogAbs)
	return -p.Scale * (math.Log(delta) + stats.LogGamma(p.Shape))
}

// ThresholdGammaExact computes the gamma threshold through the exact
// inverse regularized incomplete gamma function, which the closed form
// approximates. It is SIDCo-GP's default first stage: the solve is a
// scalar Newton iteration on the two moments, about a microsecond
// whatever the dimension. A degenerate fit gives NaN.
func ThresholdGammaExact(meanAbs, meanLogAbs, delta float64) float64 {
	p := stats.GammaFromMoments(meanAbs, meanLogAbs)
	return p.Scale * stats.InverseRegularizedGammaP(p.Shape, 1-delta)
}

// ThresholdGP is the closed-form generalized Pareto threshold of
// Corollary 1.3 with moment-matched parameters:
// eta = beta/alpha * (delta^-alpha - 1).
func ThresholdGP(meanAbs, varAbs, delta float64) float64 {
	return thresholdGPParams(stats.FitGPMoments(meanAbs, varAbs), delta)
}

func thresholdGPParams(p stats.GPParams, delta float64) float64 {
	if math.IsNaN(p.Shape) || math.IsNaN(p.Scale) {
		return math.NaN()
	}
	if math.Abs(p.Shape) < 1e-12 {
		// GP degenerates to the exponential as the shape vanishes.
		return ThresholdExp(p.Scale, delta)
	}
	return p.Scale / p.Shape * math.Expm1(-p.Shape*math.Log(delta))
}
