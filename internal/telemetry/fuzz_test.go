package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// writtenStream is a stream the JSONL sink writes: every span kind, every
// counter kind (one as a link message with its seq), and a virtual
// window with non-dyadic and negative fields.
func writtenStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	j := NewJSONLForNode(&buf, 3)
	for k := SpanKind(0); k < numSpanKinds; k++ {
		j.Emit(Event{WallNanos: 1_700_000_000_000_000_000 + int64(k), Type: EventSpan, Span: k, Node: 3, Peer: -1, Step: int64(k) - 1, DurNanos: 1000 * int64(k), Seq: -1})
	}
	for k := CounterKind(0); k < numCounterKinds; k++ {
		j.Emit(Event{WallNanos: 7, Type: EventCounter, Counter: k, Node: 3, Peer: int32(k) - 1, Step: 11, Value: -int64(k), Seq: -1})
	}
	j.Emit(Event{WallNanos: 9, Type: EventCounter, Counter: CounterSentBytes, Node: 0, Peer: 1, Step: 2, Value: 4096, Seq: 12})
	j.Emit(Event{WallNanos: 9, Type: EventVirtual, Span: SpanSend, Node: 0, Peer: 1, Step: 2, Value: 4096, Seq: 12, VStartNanos: 0.1, VEndNanos: -1953.125e-300})
	if err := j.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeJSONL drives DecodeJSONL with arbitrary streams: it must
// never panic, and every stream it accepts must round-trip, event by
// event, through the JSONL sink and DecodeJSONL again to the same events.
// The seeds are a stream the sink wrote, its meta record alone, and every
// stream TestDecodeJSONLRejects refuses.
func FuzzDecodeJSONL(f *testing.F) {
	written := writtenStream(f)
	f.Add(written)
	f.Add(written[:len(written)-7]) // a torn last line
	f.Add([]byte(validMeta))
	for _, stream := range rejectedStreams {
		f.Add([]byte(stream))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		meta, events, err := DecodeJSONL(bytes.NewReader(stream))
		if err != nil {
			if events != nil {
				t.Fatal("events alongside an error")
			}
			return
		}
		var buf bytes.Buffer
		j := NewJSONLForNode(&buf, meta.Node)
		for _, e := range events {
			j.Emit(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		meta2, again, err := DecodeJSONL(&buf)
		if err != nil {
			t.Fatalf("the sink's stream of accepted events does not decode: %v\n%s", err, buf.Bytes())
		}
		if meta2.Node != meta.Node || meta2.Schema != meta.Schema {
			t.Fatalf("meta %+v came back as %+v", meta, meta2)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("events %+v came back as %+v", events, again)
		}
	})
}
