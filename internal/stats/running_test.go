package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 1000)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
		r.Add(xs[i])
	}
	if r.n != len(xs) {
		t.Fatalf("n = %d", r.n)
	}
	if math.Abs(r.Mean()-Mean(xs)) > 1e-10 {
		t.Errorf("mean: %v vs %v", r.Mean(), Mean(xs))
	}
	// Running's variance is the unbiased one: divide by n-1.
	if want := Variance(xs) * float64(len(xs)) / float64(len(xs)-1); math.Abs(r.Variance()-want) > 1e-9 {
		t.Errorf("variance: %v vs %v", r.Variance(), want)
	}
}

func TestRunningEmptyAndReset(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) {
		t.Error("empty mean should be NaN")
	}
	if !math.IsNaN(r.Variance()) {
		t.Error("empty variance should be NaN")
	}
	if r.ConfidenceInterval(0.9) != 0 {
		t.Error("empty CI should be 0")
	}
	r.Add(1)
	r.Add(2)
	r = Running{}
	if r.n != 0 || !math.IsNaN(r.Mean()) {
		t.Error("reset did not clear")
	}
}

func TestRunningConfidenceInterval(t *testing.T) {
	var r Running
	for i := 0; i < 100; i++ {
		r.Add(float64(i % 2)) // mean 0.5, sd ~0.5025
	}
	ci := r.ConfidenceInterval(0.90)
	want := 1.6448536269514722 * r.StdDev() / 10
	if math.Abs(ci-want) > 1e-12 {
		t.Errorf("CI = %v, want %v", ci, want)
	}
	if r.ConfidenceInterval(0) != 0 || r.ConfidenceInterval(1) != 0 {
		t.Error("invalid level should give 0")
	}
}

func TestRunningCICoverage(t *testing.T) {
	// ~90% of 90% CIs over repeated draws should cover the true mean.
	rng := rand.New(rand.NewSource(13))
	const trials, perTrial = 400, 60
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var r Running
		for i := 0; i < perTrial; i++ {
			r.Add(rng.NormFloat64() + 2)
		}
		ci := r.ConfidenceInterval(0.90)
		if math.Abs(r.Mean()-2) <= ci {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.84 || rate > 0.96 {
		t.Errorf("coverage rate = %v, want ~0.90", rate)
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if got := e.Add(4); got != 4 {
		t.Errorf("first Add = %v, want 4", got)
	}
	if got := e.Add(0); got != 2 {
		t.Errorf("second Add = %v, want 2", got)
	}
	if got := e.Add(2); got != 2 {
		t.Errorf("third Add = %v, want 2", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := EWMA{Alpha: 0.1}
	var v float64
	for i := 0; i < 500; i++ {
		v = e.Add(7)
	}
	if math.Abs(v-7) > 1e-9 {
		t.Errorf("EWMA of constant = %v", v)
	}
}
