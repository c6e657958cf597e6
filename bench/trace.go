package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spStep     spanName = iota // one whole training step
	spBatch                    // TrainerConfig.Batch
	spCompress                 // outer compressor (error feedback around the estimator)
	spInner                    // inner estimator: fit + threshold gather, or select
	spExchange                 // dist.GradientExchange.Exchange
	spSend                     // cluster.Transport.Send
	spRecv                     // cluster.Transport.Recv / RecvTimeout
	spApply                    // nn.Optimizer.StepFlat, or the tensor.Axpy apply
	spBarrier                  // Node.MeanScalar, the step-closing scalar all-reduce
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"step", "data.batch", "compress.ec", "compress.inner", "cluster.exchange",
	"cluster.send", "cluster.recv", "apply", "cluster.barrier",
}

func (n spanName) String() string { return spanNames[n] }

// spanRef addresses a span across lanes; noSpan is the absent parent.
type spanRef struct{ lane, idx int32 }

var noSpan = spanRef{-1, -1}

// span is one timed interval at a layer boundary. Parent is the span that
// caused it: the enclosing span of the same lane, or the lane's adopted
// parent when the work was handed over from another goroutine.
type span struct {
	Name       spanName
	Step       int32
	Start, End int64
	Parent     spanRef
}

// lane is one goroutine's span buffer. Exactly one goroutine records on a
// lane at a time, so lanes need no locks; hand-overs between goroutines
// (the driver starting a worker, an engine fanning an exchange out to its
// node goroutines) are ordered by the channel or WaitGroup that does the
// handing over.
type lane struct {
	spans []span
	stack []int32
	step  int32
	adopt spanRef // parent for top-level spans of this lane
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil tracer, or one that is switched off, records nothing, so the same
// decorators serve the untraced baseline segment of a traced run.
type tracer struct {
	on    atomic.Bool
	now   func() int64
	lanes []lane
}

func newTracer(lanes int, now func() int64) *tracer {
	t := &tracer{now: now, lanes: make([]lane, lanes)}
	for i := range t.lanes {
		t.lanes[i].adopt = noSpan
		t.lanes[i].spans = make([]span, 0, 1<<14)
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setStep tags the spans a lane records from now on with a step number.
func (t *tracer) setStep(ln int, step int) {
	if t.enabled() {
		t.lanes[ln].step = int32(step)
	}
}

// adopt makes parent the cause of the top-level spans lane ln records from
// now on, and tags them with the parent's step.
func (t *tracer) adopt(ln int, parent spanRef) {
	if !t.enabled() || parent == noSpan {
		return
	}
	l := &t.lanes[ln]
	l.adopt = parent
	l.step = t.lanes[parent.lane].spans[parent.idx].Step
}

// begin opens a span on a lane and returns its reference (noSpan when the
// tracer is off).
func (t *tracer) begin(ln int, name spanName) spanRef {
	if !t.enabled() {
		return noSpan
	}
	l := &t.lanes[ln]
	parent := l.adopt
	if n := len(l.stack); n > 0 {
		parent = spanRef{int32(ln), l.stack[n-1]}
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Step: l.step, Parent: parent})
	l.stack = append(l.stack, idx)
	// The clock is read last so the bookkeeping above is charged to the
	// parent, not to the span being measured.
	l.spans[idx].Start = t.now()
	return spanRef{int32(ln), idx}
}

// end closes the span begin returned.
func (t *tracer) end(ref spanRef) {
	if ref == noSpan {
		return
	}
	now := t.now()
	l := &t.lanes[ref.lane]
	l.spans[ref.idx].End = now
	if n := len(l.stack); n > 0 && l.stack[n-1] == ref.idx {
		l.stack = l.stack[:n-1]
	}
}

// spanRecord is the on-disk form of a span, one JSON object per line.
type spanRecord struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"`
	Step    int    `json:"step"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// writeJSONL writes every recorded span to path. Span ids number the
// lanes' buffers back to back; parent is -1 for a root.
func (t *tracer) writeJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	base := make([]int, len(t.lanes))
	for i := 1; i < len(t.lanes); i++ {
		base[i] = base[i-1] + len(t.lanes[i-1].spans)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ln := range t.lanes {
		for i, s := range t.lanes[ln].spans {
			parent := -1
			if s.Parent != noSpan {
				parent = base[s.Parent.lane] + int(s.Parent.idx)
			}
			rec := spanRecord{ID: base[ln] + i, Name: s.Name.String(), Rank: ln, Step: int(s.Step),
				StartNS: s.Start, EndNS: s.End, Parent: parent}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
