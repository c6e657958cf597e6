package traceview

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// synthetic clock geometry: global times are ground truth, and each
// stream records local = global − offset. Alignment must recover the
// offsets from message constraints alone, within half the minimum
// round-trip of the probe traffic.
const (
	off1 = 5e6 // stream 1 (node 1) runs 5ms behind the global axis
	off2 = 2e6 // stream 2 (node 2), reachable only through node 1
)

func counterEvt(k telemetry.CounterKind, from, to int32, seq, ts int64) telemetry.Event {
	return telemetry.Event{
		WallNanos: ts, Type: telemetry.EventCounter, Counter: k,
		Node: from, Peer: to, Step: 0, Seq: seq, Value: 64,
	}
}

// skewStreams builds three wall-clock streams exchanging wire traffic
// 0↔1 and gradient traffic 1↔2, with known clock offsets and one-way
// delays.
func skewStreams() []*Stream {
	s0 := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 0}}
	s1 := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 1}}
	s2 := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 2}}

	// 0→1 wire frames: delays 40/80/120 µs.
	for i, m := range []struct{ g, d int64 }{{1e6, 40e3}, {2e6, 80e3}, {3e6, 120e3}} {
		s0.Events = append(s0.Events, counterEvt(telemetry.CounterWireSentBytes, 0, 1, int64(i), m.g))
		s1.Events = append(s1.Events, counterEvt(telemetry.CounterWireRecvBytes, 0, 1, int64(i), m.g+m.d-off1))
	}
	// 1→0 wire frames: delays 30/60 µs.
	for i, m := range []struct{ g, d int64 }{{15e5, 30e3}, {25e5, 60e3}} {
		s1.Events = append(s1.Events, counterEvt(telemetry.CounterWireSentBytes, 1, 0, int64(i), m.g-off1))
		s0.Events = append(s0.Events, counterEvt(telemetry.CounterWireRecvBytes, 1, 0, int64(i), m.g+m.d))
	}
	// 1→2 gradient messages: delays 50/90 µs.
	for i, m := range []struct{ g, d int64 }{{4e6, 50e3}, {5e6, 90e3}} {
		s1.Events = append(s1.Events, counterEvt(telemetry.CounterSentMessages, 1, 2, int64(i), m.g-off1))
		s2.Events = append(s2.Events, counterEvt(telemetry.CounterRecvMessages, 1, 2, int64(i), m.g+m.d-off2))
	}
	// 2→1 gradient message: delay 70 µs.
	s2.Events = append(s2.Events, counterEvt(telemetry.CounterSentMessages, 2, 1, 0, 45e5-off2))
	s1.Events = append(s1.Events, counterEvt(telemetry.CounterRecvMessages, 2, 1, 0, 45e5+70e3-off1))
	return []*Stream{s0, s1, s2}
}

func TestClockSkewRecovery(t *testing.T) {
	streams := skewStreams()
	tl, err := Assemble(streams)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Virtual {
		t.Fatal("counter-only streams must assemble in wall mode")
	}
	if streams[0].OffsetNanos != 0 || streams[0].SkewBoundNanos != 0 {
		t.Fatalf("stream 0 is the reference axis, got offset %v ± %v", streams[0].OffsetNanos, streams[0].SkewBoundNanos)
	}
	// Per-hop error is half the asymmetry of the minimum one-way
	// delays; the bound is half the minimum RTT (the handshake RTT
	// bound), accumulating along the spanning tree.
	cases := []struct {
		stream    int
		trueOff   float64
		wantOff   float64
		wantBound float64
	}{
		{1, off1, off1 - 5e3, 35e3},
		{2, off2, off2 + 5e3, 35e3 + 60e3},
	}
	for _, c := range cases {
		s := streams[c.stream]
		if s.OffsetNanos != c.wantOff {
			t.Errorf("stream %d offset = %v, want midpoint estimate %v", c.stream, s.OffsetNanos, c.wantOff)
		}
		if s.SkewBoundNanos != c.wantBound {
			t.Errorf("stream %d skew bound = %v, want %v", c.stream, s.SkewBoundNanos, c.wantBound)
		}
		if err := math.Abs(s.OffsetNanos - c.trueOff); err > s.SkewBoundNanos {
			t.Errorf("stream %d offset error %v exceeds its own bound %v", c.stream, err, s.SkewBoundNanos)
		}
	}

	// After alignment, causality must hold on every paired message:
	// global receive at or after global send.
	if p, so, ro := tl.PairStats(true); p != 5 || so != 0 || ro != 0 {
		t.Fatalf("wire pairs = (%d,%d,%d), want (5,0,0)", p, so, ro)
	}
	if p, so, ro := tl.PairStats(false); p != 3 || so != 0 || ro != 0 {
		t.Fatalf("gradient pairs = (%d,%d,%d), want (3,0,0)", p, so, ro)
	}
	for _, msgs := range [][]Message{tl.Messages, tl.WireMessages} {
		for _, m := range msgs {
			if m.HasSend && m.HasRecv && m.RecvEnd < m.SendStart {
				t.Errorf("message %d->%d seq %d received %v ns before it was sent", m.From, m.To, m.Seq, m.SendStart-m.RecvEnd)
			}
		}
	}
}

// TestClockSkewUnreachableStream pins the degraded mode: a stream with
// no paired traffic to the rest cannot be aligned and must say so
// rather than silently claim offset 0 is meaningful.
func TestClockSkewUnreachableStream(t *testing.T) {
	streams := skewStreams()[:2]
	lone := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 9}}
	lone.Events = append(lone.Events, counterEvt(telemetry.CounterWireSentBytes, 9, 8, 0, 1e6))
	streams = append(streams, lone)
	if _, err := Assemble(streams); err != nil {
		t.Fatal(err)
	}
	if lone.SkewBoundNanos != -1 {
		t.Fatalf("unreachable stream should report SkewBoundNanos -1, got %v", lone.SkewBoundNanos)
	}
}

// TestClockSkewCrossedStamps pins the empty-interval case: when a send
// is stamped after the peer stamped its receive, the two one-sided
// constraints cross (hi < lo). The stream is still placed at the
// interval's midpoint, but its bound reads as crossed, neither a
// negative width nor "unaligned".
func TestClockSkewCrossedStamps(t *testing.T) {
	s0 := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 0}}
	s1 := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 1}}
	// 0→1: sent at 1000, received at 900 → off_1 − off_0 ≥ 100.
	s0.Events = append(s0.Events, counterEvt(telemetry.CounterWireSentBytes, 0, 1, 0, 1000))
	s1.Events = append(s1.Events, counterEvt(telemetry.CounterWireRecvBytes, 0, 1, 0, 900))
	// 1→0: sent at 1000, received at 950 → off_1 − off_0 ≤ −50.
	s1.Events = append(s1.Events, counterEvt(telemetry.CounterWireSentBytes, 1, 0, 0, 1000))
	s0.Events = append(s0.Events, counterEvt(telemetry.CounterWireRecvBytes, 1, 0, 0, 950))
	tl, err := Assemble([]*Stream{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s1.SkewBoundNanos) {
		t.Fatalf("crossed constraints: SkewBoundNanos = %v, want crossedBound (NaN)", s1.SkewBoundNanos)
	}
	if s1.OffsetNanos != 25 {
		t.Errorf("offset = %v, want the midpoint of [100, -50], 25", s1.OffsetNanos)
	}
	var rep strings.Builder
	if err := WriteReport(&rep, tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "stream 1: node 1, 2 events, clock offset +25ns (crossed stamps, no bound)") {
		t.Errorf("report does not name the crossed interval:\n%s", rep.String())
	}
}
