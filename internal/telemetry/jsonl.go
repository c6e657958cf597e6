package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
)

// SchemaVersion is the JSONL stream schema this package writes and
// DecodeJSONL understands. Version 2 added the leading meta record,
// per-message link sequence numbers (seq) and step tags on counter
// lines, and virtual-clock events; version 3 dropped the reserved chunk
// field of span and virtual lines.
const SchemaVersion = 3

// JSONL is the streaming Sink: a leading meta record that makes the
// stream self-describing, then one JSON object per event, one event per
// line, in the order events arrive at this sink. The schema is stable
// and documented in the README's Observability section:
//
//	{"type":"meta","schema":3,"node":0,"goos":"linux","goarch":"amd64","go":"go1.24","epoch_ns":<unix-nanos>}
//	{"ts":<unix-nanos>,"type":"span","span":"exchange","node":0,"peer":-1,"step":3,"dur_ns":152340}
//	{"ts":<unix-nanos>,"type":"counter","counter":"sent_bytes","node":0,"peer":1,"step":3,"seq":12,"value":8192}
//	{"ts":<unix-nanos>,"type":"virtual","span":"send","node":0,"peer":1,"step":3,"seq":12,"value":8192,"v_start_ns":976.5625,"v_end_ns":1953.125}
//
// Span events carry step and dur_ns; counter events carry step, seq and
// value (seq is the per-directed-link monotone message sequence, -1 when
// the counter is not a link message); virtual events carry the same
// three and the Instrumented alpha-beta clock window as float64
// nanoseconds, printed with 'g'/-1 so the exact dyadic values
// round-trip. node and peer are -1 when unattributed. Encoding is manual
// (strconv appends into a reused buffer), so the steady-state emit path
// allocates nothing; writes go through an internal bufio.Writer — call
// Flush (or Close on the owner of the underlying writer) once the tracer
// has quiesced.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer // guarded by mu
	buf []byte        // guarded by mu
	err error         // guarded by mu; sticky write failure
}

// NewJSONLForNode builds a JSONL sink over w and immediately writes the
// meta record identifying the stream: schema version, owning node/rank,
// platform, and the wall-clock epoch (unix nanoseconds at the monotonic
// origin all ts fields are offsets from).
func NewJSONLForNode(w io.Writer, node int) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)} //sidco:nolock constructor; j is not yet shared
	_, err := fmt.Fprintf(j.w, `{"type":"meta","schema":%d,"node":%d,"goos":%q,"goarch":%q,"go":%q,"epoch_ns":%d}`+"\n",
		SchemaVersion, node, runtime.GOOS, runtime.GOARCH, runtime.Version(), baseWall)
	j.err = err //sidco:nolock constructor; j is not yet shared
	return j
}

// Emit implements Sink. Write failures are sticky and reported by
// Flush; telemetry must never fail the training run it observes.
//
//sidco:hotpath
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, e.WallNanos, 10)
	switch e.Type {
	case EventSpan:
		b = append(b, `,"type":"span","span":"`...)
		b = append(b, e.Span.String()...)
	case EventVirtual:
		b = append(b, `,"type":"virtual","span":"`...)
		b = append(b, e.Span.String()...)
	default:
		b = append(b, `,"type":"counter","counter":"`...)
		b = append(b, e.Counter.String()...)
	}
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(e.Peer), 10)
	switch e.Type {
	case EventSpan:
		b = append(b, `,"step":`...)
		b = strconv.AppendInt(b, e.Step, 10)
		b = append(b, `,"dur_ns":`...)
		b = strconv.AppendInt(b, e.DurNanos, 10)
	case EventVirtual:
		b = append(b, `,"step":`...)
		b = strconv.AppendInt(b, e.Step, 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, e.Seq, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, e.Value, 10)
		b = append(b, `,"v_start_ns":`...)
		b = strconv.AppendFloat(b, e.VStartNanos, 'g', -1, 64)
		b = append(b, `,"v_end_ns":`...)
		b = strconv.AppendFloat(b, e.VEndNanos, 'g', -1, 64)
	default:
		b = append(b, `,"step":`...)
		b = strconv.AppendInt(b, e.Step, 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, e.Seq, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, e.Value, 10)
	}
	b = append(b, '}', '\n')
	j.buf = b
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Flush drains buffered lines to the underlying writer and returns the
// first write error the sink encountered, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}
