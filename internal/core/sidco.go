// Package core implements SIDCo, the sparsity-inducing distribution based
// compressor of the paper: single-stage closed-form threshold estimators
// for the three SIDs (double exponential, double gamma, double generalized
// Pareto), the multi-stage peak-over-threshold refinement of Section 2.4,
// and the adaptive stage controller of Algorithm 1.
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

// Config holds the SIDCo hyper-parameters; the zero value is completed by
// Default (paper Section 4.1: delta1 = 0.25, epsilon = 20%, Q = 5).
type Config struct {
	// SID is the distribution family.
	SID SID
	// Delta1 is the per-stage compression ratio applied by all but the
	// final stage (paper default 0.25).
	Delta1 float64
	// EpsilonH and EpsilonL are the upper/lower relative error bounds of
	// the stage adaptation (Algorithm 1, defaults 0.2).
	EpsilonH float64
	EpsilonL float64
	// Q is the number of iterations between stage adaptations (default 5).
	Q int
	// MaxStages caps M. Zero derives the cap from the target ratio so the
	// final stage ratio stays <= 1.
	MaxStages int
	// MinFitSize is the smallest exceedance set a later stage will fit
	// (default 16); below it the multi-stage loop stops early.
	MinFitSize int
	// ApproxGamma selects the paper's closed-form gamma threshold
	// approximation (eq. 15) for the first stage of SIDCo-GP instead of
	// the exact inverse incomplete gamma quantile. The approximation is an
	// upper bound that is tight only near shape 1 — the paper attributes
	// SIDCo-GP's first-stage estimation error to it (Appendix E.1) — so
	// the default here is the exact quantile. It is an accuracy knob, not
	// a speed knob: at d = 2^21 the moment pass over g costs 4.4 ms
	// (21 ms while it took a math.Log per element) against 0.55 µs for the
	// exact Newton solve and 0.065 µs for the closed form.
	ApproxGamma bool
}

// Default fills unset fields with the paper's values.
func (c Config) Default() Config {
	if c.Delta1 <= 0 || c.Delta1 >= 1 {
		c.Delta1 = 0.25
	}
	if c.EpsilonH <= 0 {
		c.EpsilonH = 0.2
	}
	if c.EpsilonL <= 0 {
		c.EpsilonL = 0.2
	}
	if c.Q <= 0 {
		c.Q = 5
	}
	if c.MinFitSize <= 0 {
		c.MinFitSize = 16
	}
	return c
}

// SIDCo is the adaptive multi-stage threshold compressor. It implements
// compress.Compressor and carries the stage count M and estimation-quality
// window across iterations. It is not safe for concurrent use; each worker
// owns one instance.
type SIDCo struct {
	cfg Config

	stages      int // current M
	iter        int // training iteration counter (for the Q-periodic adaptation)
	ratioSum    float64
	ratioCnt    int
	lastK       int // ˆk of the most recent call
	lastEta     float64
	lastUsedM   int
	lastRescued bool

	// Streaming-path scratch, reused across iterations: the exceedance
	// list of the multi-stage loop — every |x| > listEta beside its index;
	// +Inf: none was built — and the per-stage ratio decomposition.
	exceed    []float64
	exceedIdx []int32
	listEta   float64
	stageBuf  []float64

	stat stats.Par
	par  tensor.Par
}

// SetParallelism implements compress.Parallelizable: the moment passes
// of every stage fit, the exceedance gathers and the threshold filters
// fan out over p goroutines. Thresholds and selections are bit-identical
// at every p — the reductions keep the serial code's fixed 4096-element
// block summation order and the gathers merge per-worker ranges in
// index order.
func (s *SIDCo) SetParallelism(p int) {
	s.stat.P = p
	s.par.P = p
}

// New creates a SIDCo compressor from cfg (missing fields defaulted). The
// stage count starts at 1 and adapts online, as in the paper.
func New(cfg Config) *SIDCo {
	return &SIDCo{cfg: cfg.Default(), stages: 1}
}

// NewE returns SIDCo with multi-stage double-exponential fitting.
func NewE() *SIDCo { return New(Config{SID: SIDExponential}) }

// NewGammaGP returns SIDCo with gamma-then-GP fitting.
func NewGammaGP() *SIDCo { return New(Config{SID: SIDGammaGP}) }

// NewGP returns SIDCo with multi-stage GP fitting.
func NewGP() *SIDCo { return New(Config{SID: SIDGP}) }

// Name implements compress.Compressor.
func (s *SIDCo) Name() string { return s.cfg.SID.String() }

// Stages returns the current number of fitting stages M.
func (s *SIDCo) Stages() int { return s.stages }

// LastThreshold returns the threshold used by the most recent CompressInto.
func (s *SIDCo) LastThreshold() float64 { return s.lastEta }

// LastStagesUsed returns how many stages the most recent CompressInto actually
// executed (early exit can use fewer than M).
func (s *SIDCo) LastStagesUsed() int { return s.lastUsedM }

// LastRescued reports whether the most recent CompressInto needed the
// collapse-rescue correction pass.
func (s *SIDCo) LastRescued() bool { return s.lastRescued }

// maxStages returns the largest usable M for the given target ratio: each
// non-final stage contributes Delta1, and the final stage ratio
// delta/Delta1^(M-1) must stay below 1.
func (s *SIDCo) maxStages(delta float64) int {
	if s.cfg.MaxStages > 0 {
		return s.cfg.MaxStages
	}
	m := 1 + int(math.Floor(math.Log(delta)/math.Log(s.cfg.Delta1)))
	if m < 1 {
		m = 1
	}
	return m
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
	d := len(g)
	k := compress.TargetK(d, delta)

	maxM := s.maxStages(delta)
	if s.stages > maxM {
		s.stages = maxM
	}
	// beta, the mean of |g|, is the scale of the rescue pass below.
	eta, used, beta := s.estimateThreshold(g, add, delta, s.stages)
	s.selectInto(dst, g, eta)

	// Rescue pass: if the estimate collapsed beyond 3x the target on
	// either side — far outside the paper's epsilon = 0.2 tolerance band —
	// apply one exponential-model correction (count(eta) ~ exp(-eta/beta),
	// so eta' = eta + beta*log(k-hat/k)) and reselect. Without this, error
	// feedback can spiral on light-tailed gradients: under-selection
	// inflates the residual, which inflates the fitted scale and raises
	// the next threshold further. The trigger is wide enough that the
	// estimation-quality dynamics the paper reports (deviations within
	// ~2x) are untouched.
	s.lastRescued = false
	if kHat := dst.NNZ(); kHat*3 < k || kHat > 3*k {
		if beta > 0 {
			obs := float64(kHat)
			if obs < 1 {
				obs = 1
			}
			etaNew := eta + beta*math.Log(obs/float64(k))
			if etaNew < 0 {
				etaNew = 0
			}
			eta = etaNew
			s.selectInto(dst, g, eta)
			s.lastRescued = true
		}
		// Second tier, under-selection only: if the local correction was
		// not enough (e.g. a GP moment fit whose variance was exploded by
		// outliers overshot the threshold by far more than one exponential
		// step), fall back to a fresh single-stage exponential estimate —
		// the mean of |g| is linear in the data and therefore outlier-robust.
		// Over-selection is left alone: sending extra elements costs
		// bandwidth but never convergence, and correcting it upward with
		// an inflated scale can re-enter the collapse.
		if kHat := dst.NNZ(); kHat*3 < k && beta > 0 {
			if etaFB := ThresholdExp(beta, delta); etaFB < eta {
				eta = etaFB
				s.selectInto(dst, g, eta)
				s.lastRescued = true
			}
		}
	}
	s.lastEta = eta
	s.lastUsedM = used
	s.lastK = dst.NNZ()

	// Record estimation quality and run the Q-periodic stage adaptation.
	s.ratioSum += float64(s.lastK) / float64(k)
	s.ratioCnt++
	s.iter++
	if s.iter%s.cfg.Q == 0 {
		s.adaptStages(maxM)
	}
	return nil
}

// selectInto writes the selection |g_i| >= eta into dst. While eta is above
// the exceedance list's strict threshold every selected element is on the
// list, in index order; otherwise — no list, a loop that stopped at the
// list's threshold, a rescue that lowered eta below it — g is swept again.
//
//sidco:hotpath
func (s *SIDCo) selectInto(dst *tensor.Sparse, g []float64, eta float64) {
	dst.Reset(len(g))
	if !(eta > s.listEta) {
		dst.Idx, dst.Vals = s.par.FilterAbove(g, eta, dst.Idx, dst.Vals)
		return
	}
	idx := s.exceedIdx[:len(s.exceed)]
	for i, a := range s.exceed {
		if a >= eta {
			dst.Append(idx[i], g[idx[i]])
		}
	}
}

// estimateThreshold runs the multi-stage fitting loop over g (+= add, in
// the first-stage sweep) and returns the final threshold together with
// the number of stages actually executed and the mean of |g|, which every
// SID's first stage computes on the way (bit-equal to stats.MeanAbs(g))
// and the rescue pass needs again. A loop that ran to its end leaves the
// exceedance list one stage behind the returned threshold.
func (s *SIDCo) estimateThreshold(g, add []float64, delta float64, m int) (eta float64, used int, meanAbs float64) {
	s.stageBuf = appendStageRatios(s.stageBuf[:0], delta, s.cfg.Delta1, m)
	ratios := s.stageBuf

	// Stage 1 fits the full gradient with the primary SID.
	eta, meanAbs = s.firstStageThreshold(g, add, ratios[0])
	used = 1
	s.listEta = math.Inf(1)
	if len(ratios) == 1 || !(eta > 0) || math.IsNaN(eta) {
		if !(eta > 0) || math.IsNaN(eta) {
			// Degenerate fit: fall back to keeping everything non-zero.
			eta = 0
		}
		return eta, used, meanAbs
	}

	// Later stages fit the exceedances (PoT) over the running threshold.
	// The exceedance list is per-instance scratch, reused every call.
	s.exceed, s.exceedIdx = s.par.PairsAbove(g, eta, s.exceed[:0], s.exceedIdx[:0])
	s.listEta = eta
	for _, dm := range ratios[1:] {
		// Compacting before the fit, not after it, is what leaves the last
		// stage's threshold above the list for selectInto.
		if s.listEta < eta {
			s.exceed, s.exceedIdx = tensor.CompactPairsAbove(s.exceed, s.exceedIdx, eta)
			s.listEta = eta
		}
		if len(s.exceed) < s.cfg.MinFitSize {
			break
		}
		next := s.nextStageThreshold(s.exceed, eta, dm)
		if !(next > eta) || math.IsNaN(next) || math.IsInf(next, 0) {
			break // fit degenerated; keep the last sound threshold
		}
		eta = next
		used++
	}
	return eta, used, meanAbs
}

// firstStageThreshold computes the single-stage threshold from the full
// gradient (Thresh_Estimation in Algorithm 1) in one moment pass over g,
// which performs g += add on the way when add is not nil, and returns the
// mean of |g| that pass produced beside it.
func (s *SIDCo) firstStageThreshold(g, add []float64, delta float64) (eta, meanAbs float64) {
	switch s.cfg.SID {
	case SIDExponential:
		mu := s.stat.AccumulateMeanAbs(g, add)
		return ThresholdExp(mu, delta), mu
	case SIDGammaGP:
		mu, muLog := s.stat.AccumulateGammaMoments(g, add)
		if s.cfg.ApproxGamma {
			return ThresholdGamma(mu, muLog, delta), mu
		}
		return ThresholdGammaExact(mu, muLog, delta), mu
	case SIDGP:
		mu, v := s.stat.AccumulateMeanVarAbs(g, add)
		return ThresholdGP(mu, v, delta), mu
	default:
		if add != nil {
			tensor.Add(add, g)
		}
		return math.NaN(), math.NaN()
	}
}

// nextStageThreshold computes the stage-m threshold from the exceedance
// magnitudes over etaPrev (Lemma 2 / Corollary 2.1).
func (s *SIDCo) nextStageThreshold(exceed []float64, etaPrev, delta float64) float64 {
	switch s.cfg.SID {
	case SIDExponential:
		beta := s.stat.Mean(exceed) - etaPrev
		return ThresholdExp(beta, delta) + etaPrev
	case SIDGammaGP, SIDGP:
		fit := s.stat.FitGPExceedance(exceed, etaPrev)
		return thresholdGPParams(fit, delta) + etaPrev
	default:
		return math.NaN()
	}
}

// adaptStages implements Adapt_Stages: compare the window-averaged
// achieved ratio against the tolerance band and step M accordingly.
//
// Direction note: the paper's pseudocode (Algorithm 1) writes M-1 on
// over-selection and M+1 on under-selection, but its own narrative
// (Appendix E.1: single-stage start "leading to a slight over-estimation
// of k" until adaptation "reach[es] the appropriate number of stages")
// and the PoT mathematics point the other way — on heavy-tailed gradients
// each extra stage raises the threshold and so reduces over-selection. We
// implement the direction consistent with the dynamics the paper reports.
func (s *SIDCo) adaptStages(maxM int) {
	if s.ratioCnt == 0 {
		return
	}
	avg := s.ratioSum / float64(s.ratioCnt)
	switch {
	case avg > 1+s.cfg.EpsilonH:
		// Over-selecting: the threshold is too low; more aggressive tail
		// fitting (an extra stage) raises it.
		s.stages++
	case avg < 1-s.cfg.EpsilonL:
		s.stages--
	}
	if s.stages < 1 {
		s.stages = 1
	}
	if s.stages > maxM {
		s.stages = maxM
	}
	s.ratioSum, s.ratioCnt = 0, 0
}

// StageRatios decomposes the target ratio delta into per-stage ratios:
// stages 1..M-1 apply delta1 and the final stage applies
// delta/delta1^(M-1), so that the product is exactly delta. M is clamped
// so the final ratio stays in (0, 1].
func StageRatios(delta, delta1 float64, m int) []float64 {
	return appendStageRatios(nil, delta, delta1, m)
}

// appendStageRatios is StageRatios over caller-owned storage, so the
// per-iteration hot path reuses its decomposition buffer.
func appendStageRatios(dst []float64, delta, delta1 float64, m int) []float64 {
	if m < 1 {
		m = 1
	}
	for m > 1 && delta/math.Pow(delta1, float64(m-1)) > 1 {
		m--
	}
	for i := 0; i < m-1; i++ {
		dst = append(dst, delta1)
	}
	return append(dst, delta/math.Pow(delta1, float64(m-1)))
}

// ThresholdExp is the closed-form double-exponential threshold of
// Corollary 1.1: eta = beta * log(1/delta), with beta the MLE scale
// (mean absolute gradient).
func ThresholdExp(beta, delta float64) float64 {
	return beta * math.Log(1/delta)
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
