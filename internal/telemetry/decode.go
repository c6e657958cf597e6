package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Meta is a JSONL stream's leading self-description record.
type Meta struct {
	// Schema is the stream's schema version; DecodeJSONL rejects
	// versions it does not know.
	Schema int `json:"schema"`
	// Node is the rank/node the stream belongs to, -1 when the stream
	// aggregates several nodes (a single-process engine run).
	Node int `json:"node"`
	// GOOS/GOARCH/GoVersion identify the producing build.
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go"`
	// EpochNanos is the producing process's wall clock (unix
	// nanoseconds) at its monotonic origin: every ts in the stream is
	// EpochNanos + a monotonic offset.
	EpochNanos int64 `json:"epoch_ns"`
}

// spanKindNames / counterKindNames invert spanNames and counterRows so
// the decoder recovers kinds from their stable JSONL names.
var spanKindNames = func() map[string]SpanKind {
	m := make(map[string]SpanKind, numSpanKinds)
	for k, name := range spanNames {
		m[name] = SpanKind(k)
	}
	return m
}()

var counterKindNames = func() map[string]CounterKind {
	m := make(map[string]CounterKind, numCounterKinds)
	for k, r := range counterRows {
		m[r.name] = CounterKind(k)
	}
	return m
}()

// The jsonl* structs are the fields of each line type. Decoding is strict
// per line type: a second pass with DisallowUnknownFields into the type's
// own struct rejects stray fields, so schema drift fails loudly instead of
// being silently ignored.
type jsonlType struct {
	Type string `json:"type"`
}

type jsonlMeta struct {
	Type       string `json:"type"`
	Schema     int    `json:"schema"`
	Node       int    `json:"node"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	EpochNanos int64  `json:"epoch_ns"`
}

type jsonlSpan struct {
	TS    int64  `json:"ts"`
	Type  string `json:"type"`
	Span  string `json:"span"`
	Node  int32  `json:"node"`
	Peer  int32  `json:"peer"`
	Step  int64  `json:"step"`
	DurNS int64  `json:"dur_ns"`
}

type jsonlCounter struct {
	TS      int64  `json:"ts"`
	Type    string `json:"type"`
	Counter string `json:"counter"`
	Node    int32  `json:"node"`
	Peer    int32  `json:"peer"`
	Step    int64  `json:"step"`
	Seq     int64  `json:"seq"`
	Value   int64  `json:"value"`
}

type jsonlVirtual struct {
	TS       int64   `json:"ts"`
	Type     string  `json:"type"`
	Span     string  `json:"span"`
	Node     int32   `json:"node"`
	Peer     int32   `json:"peer"`
	Step     int64   `json:"step"`
	Seq      int64   `json:"seq"`
	Value    int64   `json:"value"`
	VStartNS float64 `json:"v_start_ns"`
	VEndNS   float64 `json:"v_end_ns"`
}

func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// DecodeJSONL reads one JSONL stream back into its meta record and
// events. The stream must be self-describing: the first line must be a
// meta record with a schema version this package knows (SchemaVersion),
// anything else — including pre-v2 streams without a meta line — is
// rejected. Decoding is strict: unknown line types, unknown span or
// counter names, and unknown fields are errors.
func DecodeJSONL(r io.Reader) (Meta, []Event, error) {
	var meta Meta
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n++
		var head jsonlType
		if err := json.Unmarshal(line, &head); err != nil {
			return meta, nil, fmt.Errorf("telemetry: line %d: %w", n, err)
		}
		if n == 1 {
			if head.Type != "meta" {
				return meta, nil, fmt.Errorf("telemetry: line 1 is %q, want a meta record (pre-v%d stream?)", head.Type, SchemaVersion)
			}
			var m jsonlMeta
			if err := strictUnmarshal(line, &m); err != nil {
				return meta, nil, fmt.Errorf("telemetry: meta record: %w", err)
			}
			if m.Schema != SchemaVersion {
				return meta, nil, fmt.Errorf("telemetry: stream schema %d, this decoder knows %d", m.Schema, SchemaVersion)
			}
			meta = Meta{Schema: m.Schema, Node: m.Node, GOOS: m.GOOS, GOARCH: m.GOARCH, GoVersion: m.GoVersion, EpochNanos: m.EpochNanos}
			continue
		}
		switch head.Type {
		case "span":
			var l jsonlSpan
			if err := strictUnmarshal(line, &l); err != nil {
				return meta, nil, fmt.Errorf("telemetry: line %d: %w", n, err)
			}
			kind, ok := spanKindNames[l.Span]
			if !ok {
				return meta, nil, fmt.Errorf("telemetry: line %d: unknown span kind %q", n, l.Span)
			}
			events = append(events, Event{
				WallNanos: l.TS, Type: EventSpan, Span: kind,
				Node: l.Node, Peer: l.Peer,
				Step: l.Step, DurNanos: l.DurNS, Seq: -1,
			})
		case "counter":
			var l jsonlCounter
			if err := strictUnmarshal(line, &l); err != nil {
				return meta, nil, fmt.Errorf("telemetry: line %d: %w", n, err)
			}
			kind, ok := counterKindNames[l.Counter]
			if !ok {
				return meta, nil, fmt.Errorf("telemetry: line %d: unknown counter kind %q", n, l.Counter)
			}
			events = append(events, Event{
				WallNanos: l.TS, Type: EventCounter, Counter: kind,
				Node: l.Node, Peer: l.Peer,
				Step: l.Step, Value: l.Value, Seq: l.Seq,
			})
		case "virtual":
			var l jsonlVirtual
			if err := strictUnmarshal(line, &l); err != nil {
				return meta, nil, fmt.Errorf("telemetry: line %d: %w", n, err)
			}
			kind, ok := spanKindNames[l.Span]
			if !ok {
				return meta, nil, fmt.Errorf("telemetry: line %d: unknown span kind %q", n, l.Span)
			}
			events = append(events, Event{
				WallNanos: l.TS, Type: EventVirtual, Span: kind,
				Node: l.Node, Peer: l.Peer,
				Step: l.Step, Value: l.Value, Seq: l.Seq,
				VStartNanos: l.VStartNS, VEndNanos: l.VEndNS,
			})
		case "meta":
			return meta, nil, fmt.Errorf("telemetry: line %d: duplicate meta record", n)
		default:
			return meta, nil, fmt.Errorf("telemetry: line %d: unknown line type %q", n, head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return meta, nil, err
	}
	if n == 0 {
		return meta, nil, fmt.Errorf("telemetry: empty stream (no meta record)")
	}
	return meta, events, nil
}
