package telemetry

import (
	"io"
	"testing"
)

// TestDisabledTracerZeroAllocs is the hot-path acceptance criterion: a
// nil tracer's Begin/End/Count must allocate nothing, so the
// instrumentation can live unconditionally inside dist.Trainer.Step and
// the cluster schedules without costing the zero-alloc step budget.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(SpanStep, 0, -1, 7)
		tr.Count(CounterSentMessages, 0, 1, 1)
		tr.Count(CounterSentBytes, 0, 1, 4096)
		tr.CountSeq(CounterRecvMessages, 0, 1, 1, 3, 7)
		tr.Count(CounterSelectedElems, 0, -1, 2097)
		tr.Count(CounterTargetElems, 0, -1, 2097)
		tr.Count(CounterSelectListCorrections, 0, -1, 1)
		tr.Count(CounterSelectSweepFallbacks, 0, -1, 1)
		tr.Count(CounterApplyElems, 0, -1, 4194)
		tr.Count(CounterRecoveries, 0, -1, 1)
		tr.Count(CounterPeersLost, 0, -1, 1)
		tr.Virtual(SpanSend, 0, 1, 7, 3, 4096, 976.5625, 1953.125)
		inner := tr.Begin(SpanExchange, 0, 1, 7)
		inner.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledTracerSteadyStateZeroAllocs pins the enabled budget: after
// warm-up (ring buffers sized, link/node map entries created, JSONL
// scratch grown) the emit path through both built-in sinks is
// allocation-free too.
func TestEnabledTracerSteadyStateZeroAllocs(t *testing.T) {
	agg := NewAggregator()
	j := NewJSONLForNode(io.Discard, -1)
	tr := New(agg, j)
	emit := func() {
		sp := tr.Begin(SpanStep, 0, -1, 7)
		tr.Count(CounterSentMessages, 0, 1, 1)
		tr.Count(CounterSentBytes, 0, 1, 4096)
		tr.CountSeq(CounterRecvMessages, 0, 1, 1, 3, 7)
		tr.Count(CounterSelectedElems, 0, -1, 2097)
		tr.Count(CounterTargetElems, 0, -1, 2097)
		tr.Count(CounterSelectListCorrections, 0, -1, 1)
		tr.Count(CounterSelectSweepFallbacks, 0, -1, 1)
		tr.Count(CounterApplyElems, 0, -1, 4194)
		tr.Count(CounterRecoveries, 0, -1, 1)
		tr.Count(CounterPeersLost, 0, -1, 1)
		tr.Virtual(SpanSend, 0, 1, 7, 3, 4096, 976.5625, 1953.125)
		inner := tr.Begin(SpanExchange, 0, 1, 7)
		inner.End()
		sp.End()
	}
	for i := 0; i < 100; i++ { // warm up rings, maps and buffers
		emit()
	}
	if allocs := testing.AllocsPerRun(1000, emit); allocs != 0 {
		t.Errorf("enabled tracer allocates %.1f/op in steady state, want 0", allocs)
	}
}
