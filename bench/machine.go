package main

import (
	"math"
	"sync"
)

// machineProbe times two fixed kernels owned by the benchmark between
// chunks of timed steps, so that a run knows how fast the machine was while
// it measured: a streaming pass over 32 MiB (memory system) and a
// cache-resident logarithm loop (cores), each on both cores at once.
//
// The benchmark was built on a two-core VM whose host slows it by 5-50% for
// minutes at a time. Every time a run reports is therefore divided by the
// slowdown the probe read around it (see slowdown), which halves the spread
// between runs; the raw median step and the slowdown are reported beside
// the result, so the division can be undone.
type machineProbe struct {
	a, b [ranks][]float64
	c    [ranks][]float64
	sink [ranks]float64
	wg   sync.WaitGroup
}

const (
	probeMemLen = 1 << 20
	probeCPULen = 1 << 14
)

func newMachineProbe() *machineProbe {
	p := &machineProbe{}
	for r := 0; r < ranks; r++ {
		p.a[r], p.b[r] = make([]float64, probeMemLen), make([]float64, probeMemLen)
		p.c[r] = make([]float64, probeCPULen)
		for i := range p.b[r] {
			p.b[r][i] = float64(i)
		}
		for i := range p.c[r] {
			p.c[r][i] = float64(i + 1)
		}
	}
	return p
}

func (p *machineProbe) stream(r int) {
	a, b := p.a[r], p.b[r]
	for i := range a {
		a[i] += 0.5 * b[i]
	}
	p.wg.Done()
}

func (p *machineProbe) arith(r int) {
	s := 0.0
	for rep := 0; rep < 4; rep++ {
		for _, v := range p.c[r] {
			s += math.Log(v)
		}
	}
	p.sink[r] += s
	p.wg.Done()
}

// timeBoth runs kernel on both cores at once, three times, and returns the
// median wall-clock in nanoseconds.
func (p *machineProbe) timeBoth(kernel func(r int)) float64 {
	var ds [3]float64
	for i := range ds {
		t0 := nowNanos()
		p.wg.Add(ranks)
		for r := 0; r < ranks; r++ {
			go kernel(r)
		}
		p.wg.Wait()
		ds[i] = float64(nowNanos() - t0)
	}
	return median(ds[:])
}

// machineSample is one reading of the two kernels, in nanoseconds.
type machineSample struct {
	Stream, Arith float64
}

func (p *machineProbe) sample() machineSample {
	return machineSample{Stream: p.timeBoth(p.stream), Arith: p.timeBoth(p.arith)}
}

// refMachine is what the probe reads on the idle reference box (2 vCPUs of
// an Intel Xeon @ 2.10GHz, go1.24): times are reported as that box would
// have measured them.
var refMachine = machineSample{Stream: 1.85e6, Arith: 0.60e6}

// slowdown is how much slower than the idle reference box the machine ran
// between two probe readings: the geometric mean of the two kernels'
// slowdowns, each averaged over the readings. Over 78 runs of the five
// workloads, least squares of log step time on the log readings gave the
// two kernels exponents of 0.3-0.8 each that sum to 0.5-1.0 depending on
// the workload; equal weights summing to 1 is the one model fitted to none
// of them.
func slowdown(before, after machineSample) float64 {
	stream := (before.Stream + after.Stream) / 2 / refMachine.Stream
	arith := (before.Arith + after.Arith) / 2 / refMachine.Arith
	return math.Sqrt(stream * arith)
}
