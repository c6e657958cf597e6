package main

import "sort"

// interval is a half-open span of the monotonic clock, in nanoseconds.
type interval struct{ lo, hi int64 }

func (iv interval) len() int64 {
	if iv.hi <= iv.lo {
		return 0
	}
	return iv.hi - iv.lo
}

func (iv interval) clip(to interval) interval {
	if iv.lo < to.lo {
		iv.lo = to.lo
	}
	if iv.hi > to.hi {
		iv.hi = to.hi
	}
	return iv
}

// selfTime is a span's duration minus the part of it its children cover:
// overlapping children (parallel goroutines) count once.
func selfTime(parent interval, children []interval) int64 {
	return parent.len() - coveredBy(parent, [][]interval{children})
}

// coveredBy measures the part of window during which every one of the
// given lanes is inside one of its intervals. With one lane it is the
// union of that lane's intervals; with several it is the time all of them
// are occupied at once (for transport spans: the time nobody computes).
func coveredBy(window interval, lanes [][]interval) int64 {
	if len(lanes) == 0 {
		return 0
	}
	cuts := []int64{window.lo, window.hi}
	for _, ivs := range lanes {
		for _, iv := range ivs {
			iv = iv.clip(window)
			if iv.len() > 0 {
				cuts = append(cuts, iv.lo, iv.hi)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var total int64
	for i := 0; i+1 < len(cuts); i++ {
		seg := interval{cuts[i], cuts[i+1]}
		if seg.len() == 0 {
			continue
		}
		all := true
		for _, ivs := range lanes {
			in := false
			for _, iv := range ivs {
				if iv.lo <= seg.lo && seg.hi <= iv.hi {
					in = true
					break
				}
			}
			if !in {
				all = false
				break
			}
		}
		if all {
			total += seg.len()
		}
	}
	return total
}

// stepLayers attributes one step's wall-clock to layers along its
// critical rank: the rank that reached the exchange last, whose timeline
// is therefore the one the step waited for. All values are nanoseconds.
type stepLayers struct {
	StepNo    int     // the step's number, counted from the first warm-up step
	Step      float64 // earliest rank's start to latest rank's end
	Batch     float64
	FwdBwd    float64 // batch end to compressor (or exchange) start
	Inner     float64 // estimator: fit + gather, or select
	EC        float64 // error-feedback self time: compress span minus estimator
	Exchange  float64
	Send      float64
	RecvWait  float64
	SchedSelf float64 // exchange minus the time every node sat in the transport
	Apply     float64
	Barrier   float64
	Self      float64 // step minus everything above
	Skew      float64 // latest minus earliest arrival at the exchange
}

// scale multiplies every time of the step by f.
func (l *stepLayers) scale(f float64) {
	for _, v := range []*float64{&l.Step, &l.Batch, &l.FwdBwd, &l.Inner, &l.EC, &l.Exchange, &l.Send,
		&l.RecvWait, &l.SchedSelf, &l.Apply, &l.Barrier, &l.Self, &l.Skew} {
		*v *= f
	}
}

// laneStep is the spans one lane recorded for one step, by name; a name
// recorded several times (sends, receives) keeps every interval.
type laneStep [numSpanNames][]interval

func indexLane(l *lane) map[int32]*laneStep {
	out := map[int32]*laneStep{}
	for _, s := range l.spans {
		if s.End == 0 {
			continue // still open when recording stopped
		}
		ls := out[s.Step]
		if ls == nil {
			ls = &laneStep{}
			out[s.Step] = ls
		}
		ls[s.Name] = append(ls[s.Name], interval{s.Start, s.End})
	}
	return out
}

func first(ivs []interval) (interval, bool) {
	if len(ivs) == 0 {
		return interval{}, false
	}
	return ivs[0], true
}

// transportIntervals lists a lane's closed send and receive spans in time
// order; one goroutine records them back to back, so they never overlap.
func transportIntervals(l *lane) []interval {
	var out []interval
	for _, s := range l.spans {
		if (s.Name == spSend || s.Name == spRecv) && s.End != 0 {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// overlapping returns the run of time-ordered, disjoint intervals that
// intersect window.
func overlapping(ivs []interval, window interval) []interval {
	lo := sort.Search(len(ivs), func(i int) bool { return ivs[i].hi > window.lo })
	hi := lo
	for hi < len(ivs) && ivs[hi].lo < window.hi {
		hi++
	}
	return ivs[lo:hi]
}

func sumWithin(ivs []interval, window interval) int64 {
	var total int64
	for _, iv := range ivs {
		total += iv.clip(window).len()
	}
	return total
}

// attribute turns the recorded spans into one stepLayers per traced step,
// in step order. Steps missing a required span (recording switched on or
// off mid-step) are skipped.
func attribute(t *tracer, lay layout) []stepLayers {
	byLane := make([]map[int32]*laneStep, len(t.lanes))
	for i := range t.lanes {
		byLane[i] = indexLane(&t.lanes[i])
	}
	root := lay.workers[0]
	if !lay.train {
		root = lay.driver
	}
	steps := make([]int32, 0, len(byLane[root]))
	for s := range byLane[root] {
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })

	// Inside an engine, transport spans are matched to the exchange by
	// time, not by step tag: the parameter server's receive for a round
	// opens before the round's exchange span exists.
	var transport [][]interval
	for _, ln := range lay.nodes {
		transport = append(transport, transportIntervals(&t.lanes[ln]))
	}

	var out []stepLayers
	for _, s := range steps {
		var l stepLayers
		var ok bool
		if lay.train {
			l, ok = attributeTrain(byLane, lay, s)
		} else {
			l, ok = attributeGrad(byLane, transport, lay, s)
		}
		if ok {
			l.StepNo = int(s)
			out = append(out, l)
		}
	}
	return out
}

func attributeTrain(byLane []map[int32]*laneStep, lay layout, s int32) (stepLayers, bool) {
	var l stepLayers
	var stepLo, stepHi, arriveLo, arriveHi int64
	crit := -1
	for i, ln := range lay.workers {
		ls := byLane[ln][s]
		if ls == nil {
			return l, false
		}
		st, ok1 := first(ls[spStep])
		ex, ok2 := first(ls[spExchange])
		if !ok1 || !ok2 {
			return l, false
		}
		if i == 0 || st.lo < stepLo {
			stepLo = st.lo
		}
		if i == 0 || st.hi > stepHi {
			stepHi = st.hi
		}
		if i == 0 || ex.lo < arriveLo {
			arriveLo = ex.lo
		}
		if i == 0 || ex.lo > arriveHi {
			arriveHi, crit = ex.lo, ln
		}
	}
	ls := byLane[crit][s]
	ex := ls[spExchange][0]
	batch, _ := first(ls[spBatch])
	comp, compressed := first(ls[spCompress])
	inner, _ := first(ls[spInner])
	apply, _ := first(ls[spApply])
	bar, _ := first(ls[spBarrier])

	step := interval{stepLo, stepHi}
	fwdbwd := interval{batch.hi, ex.lo}
	if compressed {
		fwdbwd.hi = comp.lo
	}
	if batch.len() == 0 {
		fwdbwd = interval{}
	}
	l.Step = float64(step.len())
	l.Skew = float64(arriveHi - arriveLo)
	l.Batch = float64(batch.len())
	l.FwdBwd = float64(fwdbwd.len())
	l.Inner = float64(inner.len())
	l.EC = float64(selfTime(comp, []interval{inner}))
	l.Exchange = float64(ex.len())
	l.Send = float64(sumWithin(ls[spSend], ex))
	l.RecvWait = float64(sumWithin(ls[spRecv], ex))
	l.SchedSelf = l.Exchange - l.Send - l.RecvWait
	l.Apply = float64(apply.len())
	l.Barrier = float64(bar.len())
	l.Self = float64(selfTime(step, []interval{batch, fwdbwd, comp, ex, apply, bar}))
	return l, true
}

func attributeGrad(byLane []map[int32]*laneStep, transport [][]interval, lay layout, s int32) (stepLayers, bool) {
	var l stepLayers
	ds := byLane[lay.driver][s]
	st, ok1 := first(ds[spStep])
	ex, ok2 := first(ds[spExchange])
	apply, ok3 := first(ds[spApply])
	if !ok1 || !ok2 || !ok3 {
		return l, false
	}
	var arriveLo, arriveHi int64
	crit := -1
	for i, ln := range lay.workers {
		ls := byLane[ln][s]
		if ls == nil {
			return l, false
		}
		comp, ok := first(ls[spCompress])
		if !ok {
			return l, false
		}
		if i == 0 || comp.hi < arriveLo {
			arriveLo = comp.hi
		}
		if i == 0 || comp.hi > arriveHi {
			arriveHi, crit = comp.hi, ln
		}
	}
	ls := byLane[crit][s]
	comp := ls[spCompress][0]
	inner, _ := first(ls[spInner])

	var nodes [][]interval
	for _, ivs := range transport {
		if in := overlapping(ivs, ex); len(in) > 0 {
			nodes = append(nodes, in)
		}
	}
	l.Step = float64(st.len())
	l.Skew = float64(arriveHi - arriveLo)
	l.Inner = float64(inner.len())
	l.EC = float64(selfTime(comp, []interval{inner}))
	l.Exchange = float64(ex.len())
	l.Send = float64(sumWithin(ls[spSend], ex))
	l.RecvWait = float64(sumWithin(ls[spRecv], ex))
	l.SchedSelf = l.Exchange - float64(coveredBy(ex, nodes))
	l.Apply = float64(apply.len())
	l.Self = float64(selfTime(st, []interval{comp, ex, apply}))
	return l, true
}

// decoratorTotals sums the decorators' spans by the repo telemetry span
// kind they bracket, over every lane, for the steps in [lo, hi).
func decoratorTotals(t *tracer, lo, hi int) map[string]float64 {
	out := map[string]float64{}
	for i := range t.lanes {
		for _, s := range t.lanes[i].spans {
			if int(s.Step) < lo || int(s.Step) >= hi || s.End == 0 {
				continue
			}
			d := float64(s.End - s.Start)
			switch s.Name {
			case spCompress:
				out["compress"] += d
			case spExchange:
				out["exchange"] += d
			case spApply:
				out["apply"] += d
			}
		}
	}
	return out
}
