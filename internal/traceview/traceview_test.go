package traceview

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const workers = 4

// uniformSparseInputs builds per-worker selections with identical index
// supports (every stride-th index) and distinct values: payload sizes
// are then identical across workers, the lockstep-uniform regime where
// cluster.Instrumented's virtual clock and netsim's closed forms describe
// the same execution.
func uniformSparseInputs(t *testing.T, dim, stride int) []dist.ExchangeInput {
	t.Helper()
	var idx []int32
	for i := 0; i < dim; i += stride {
		idx = append(idx, int32(i))
	}
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		vals := make([]float64, len(idx))
		dense := make([]float64, dim)
		for i := range vals {
			vals[i] = float64(w+1) + float64(i%7)*0.5
			dense[idx[i]] = vals[i]
		}
		sp, err := tensor.NewSparse(dim, append([]int32(nil), idx...), vals)
		if err != nil {
			t.Fatal(err)
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense, Sparse: sp}
	}
	return ins
}

func denseInputs(dim int) []dist.ExchangeInput {
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		dense := make([]float64, dim)
		for i := range dense {
			dense[i] = float64(w+1) * float64(i+1)
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense}
	}
	return ins
}

// runEngineTrace runs iters exchanges on the chan-transport engine over
// the dyadic fabric with telemetry captured as a JSONL stream, and
// returns the decoded stream plus the transport's virtual elapsed time.
func runEngineTrace(t *testing.T, cfg cluster.Config, ins []dist.ExchangeInput, dim, iters int) (*Stream, float64) {
	t.Helper()
	var buf bytes.Buffer
	jl := telemetry.NewJSONLForNode(&buf, -1)
	cfg.Workers = workers
	cfg.Scenario = cluster.ScenarioFromNetwork(netsim.DyadicLab(workers))
	cfg.Telemetry = telemetry.New(jl)
	e, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, dim)
	for it := 0; it < iters; it++ {
		if err := e.Exchange(it, ins, agg); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := e.Transport().Elapsed()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, events, err := telemetry.DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return &Stream{Meta: meta, Events: events}, elapsed
}

func assemble1(t *testing.T, s *Stream) *Timeline {
	t.Helper()
	tl, err := Assemble([]*Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Virtual {
		t.Fatal("engine run with a Scenario should assemble in virtual mode")
	}
	return tl
}

// requireAllPaired asserts the ISSUE invariant: every gradient send is
// matched with exactly one receive, and the total equals the netsim
// message formula.
func requireAllPaired(t *testing.T, tl *Timeline, wantPairs int) {
	t.Helper()
	paired, sendOnly, recvOnly := tl.PairStats(false)
	if sendOnly != 0 || recvOnly != 0 {
		t.Fatalf("unpaired messages: %d send-only, %d recv-only", sendOnly, recvOnly)
	}
	if paired != wantPairs {
		t.Fatalf("paired messages = %d, want %d (netsim formula)", paired, wantPairs)
	}
}

// requireExactPath asserts bitwise equality between the assembled
// critical path and the closed form, in the uniform nanos domain.
func requireExactPath(t *testing.T, tl *Timeline, step int64, wantNanos float64) *CriticalPath {
	t.Helper()
	cp, err := tl.CriticalPath(step)
	if err != nil {
		t.Fatal(err)
	}
	if cp.TotalNanos != wantNanos {
		t.Fatalf("step %d critical path = %v ns, want exactly %v ns (diff %v)",
			step, cp.TotalNanos, wantNanos, cp.TotalNanos-wantNanos)
	}
	if cp.SlackNanos != 0 {
		t.Fatalf("virtual critical path has %v ns slack; every hop must bind exactly", cp.SlackNanos)
	}
	var sum float64
	for _, seg := range cp.Segments {
		if seg.End < seg.Start {
			t.Fatalf("segment %+v runs backward", seg)
		}
		sum += seg.End - seg.Start
	}
	if sum != cp.TotalNanos {
		t.Fatalf("segments sum to %v ns, path total %v ns — the path has gaps or overlaps", sum, cp.TotalNanos)
	}
	return cp
}

// linkMessages returns the gradient messages of one directed link in
// seq order (Assemble sorts by (from, to, seq)).
func linkMessages(tl *Timeline, from, to int32) []Message {
	var out []Message
	for _, m := range tl.Messages {
		if m.From == from && m.To == to {
			out = append(out, m)
		}
	}
	return out
}

func TestCriticalPathRingExactAndPerStep(t *testing.T) {
	const dim, iters = 1024, 2
	s, elapsed := runEngineTrace(t, cluster.Config{Collective: netsim.CollectiveRing}, denseInputs(dim), dim, iters)
	tl := assemble1(t, s)
	net := netsim.DyadicLab(workers)

	requireAllPaired(t, tl, iters*workers*netsim.RingMessages(workers))
	for _, m := range tl.Messages {
		if m.Bytes != 8*dim/workers {
			t.Fatalf("ring message carries %d bytes, want %d", m.Bytes, 8*dim/workers)
		}
	}
	if len(tl.Steps) != iters || tl.Steps[0] != 0 || tl.Steps[1] != 1 {
		t.Fatalf("steps = %v, want [0 1]", tl.Steps)
	}

	f := net.AllReduceDense(8 * dim)
	// Step 0 starts at virtual zero; step 1's bounds are both sums of
	// exact dyadic step times, so the nanos conversion of each bound is
	// the same single rounding the engine applied.
	cp0 := requireExactPath(t, tl, 0, f*1e9)
	requireExactPath(t, tl, 1, 2*f*1e9-f*1e9)
	cp1, err := tl.CriticalPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if cp1.EndNanos != elapsed*1e9 {
		t.Fatalf("step 1 path ends at %v ns, transport elapsed %v ns", cp1.EndNanos, elapsed*1e9)
	}
	if cp0.ByKind[telemetry.SpanSend]+cp0.ByKind[telemetry.SpanRecv] != cp0.TotalNanos {
		t.Fatalf("ring path should be pure communication, got %+v", cp0.ByKind)
	}
}

func TestCriticalPathRingWithComputeExact(t *testing.T) {
	const dim = 1024
	computeSec := 1.0 / (1 << 10)
	s, elapsed := runEngineTrace(t, cluster.Config{
		Collective: netsim.CollectiveRing, ComputeSec: computeSec,
	}, denseInputs(dim), dim, 1)
	tl := assemble1(t, s)
	net := netsim.DyadicLab(workers)

	want := (computeSec + net.AllReduceDense(8*dim)) * 1e9
	cp := requireExactPath(t, tl, 0, want)
	if cp.EndNanos != elapsed*1e9 {
		t.Fatalf("path end %v != elapsed %v", cp.EndNanos, elapsed*1e9)
	}
	if cp.ByKind[telemetry.SpanCompute] != computeSec*1e9 {
		t.Fatalf("compute on path = %v ns, want %v ns", cp.ByKind[telemetry.SpanCompute], computeSec*1e9)
	}
}

func TestCriticalPathAllGatherExact(t *testing.T) {
	const dim = 1024
	s, elapsed := runEngineTrace(t, cluster.Config{
		Collective: netsim.CollectiveAllGather,
	}, uniformSparseInputs(t, dim, 4), dim, 1)
	tl := assemble1(t, s)
	net := netsim.DyadicLab(workers)

	requireAllPaired(t, tl, workers*netsim.AllGatherMessages(workers))
	b := tl.Messages[0].Bytes
	for _, m := range tl.Messages {
		if m.Bytes != b {
			t.Fatalf("payloads not uniform: %d vs %d bytes", m.Bytes, b)
		}
	}
	cp := requireExactPath(t, tl, 0, net.AllGatherSparse(int(b))*1e9)
	if cp.EndNanos != elapsed*1e9 {
		t.Fatalf("path end %v != elapsed %v", cp.EndNanos, elapsed*1e9)
	}
}

// TestCriticalPathWallCompressGatesSend: on a wall-clock timeline a
// worker's compression occupies the same lane as its receives and
// compute, so a send that leaves the moment compression ends binds to it
// and the compress span lands on the critical path.
func TestCriticalPathWallCompressGatesSend(t *testing.T) {
	counter := func(k telemetry.CounterKind, node, peer int32, ts, value int64) telemetry.Event {
		return telemetry.Event{
			WallNanos: ts, Type: telemetry.EventCounter, Counter: k,
			Node: node, Peer: peer, Step: 0, Seq: 0, Value: value,
		}
	}
	s := &Stream{Meta: telemetry.Meta{Schema: telemetry.SchemaVersion, Node: 0}, Events: []telemetry.Event{
		{WallNanos: 1000, Type: telemetry.EventSpan, Span: telemetry.SpanCompress, Node: 0, Peer: -1, Step: 0, DurNanos: 800, Seq: -1},
		counter(telemetry.CounterSentMessages, 0, 1, 1000, 1),
		counter(telemetry.CounterSentBytes, 0, 1, 1000, 64),
		counter(telemetry.CounterRecvMessages, 0, 1, 1500, 1),
	}}
	tl, err := Assemble([]*Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Virtual {
		t.Fatal("span-and-counter stream must assemble in wall mode")
	}
	cp, err := tl.CriticalPath(0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.StartNanos != 200 || cp.EndNanos != 1500 {
		t.Fatalf("path spans [%v, %v], want [200, 1500]", cp.StartNanos, cp.EndNanos)
	}
	if got := cp.ByKind[telemetry.SpanCompress]; got != 800 {
		t.Errorf("compress on path = %v ns, want 800", got)
	}
	if cp.SlackNanos != 500 {
		t.Errorf("slack = %v ns, want the 500 between the send and its receive", cp.SlackNanos)
	}
}

func TestCriticalPathParameterServerExact(t *testing.T) {
	const dim = 1024
	srv := int32(workers)
	s, elapsed := runEngineTrace(t, cluster.Config{
		Collective: netsim.CollectivePS,
	}, uniformSparseInputs(t, dim, 4), dim, 1)
	tl := assemble1(t, s)
	net := netsim.DyadicLab(workers)

	requireAllPaired(t, tl, netsim.PSMessages(workers))
	var push, pull int64 = -1, -1
	for _, m := range tl.Messages {
		switch {
		case m.To == srv:
			if push >= 0 && m.Bytes != push {
				t.Fatalf("push payloads not uniform: %d vs %d", m.Bytes, push)
			}
			push = m.Bytes
		case m.From == srv:
			if pull >= 0 && m.Bytes != pull {
				t.Fatalf("pull payloads not uniform: %d vs %d", m.Bytes, pull)
			}
			pull = m.Bytes
		default:
			t.Fatalf("unexpected worker-to-worker message %d->%d in PS mode", m.From, m.To)
		}
	}
	want := net.ParameterServer(int(push), int(pull)) * 1e9
	cp := requireExactPath(t, tl, 0, want)
	if cp.EndNanos != elapsed*1e9 {
		t.Fatalf("path end %v != elapsed %v", cp.EndNanos, elapsed*1e9)
	}
	// The last pull's wait attributes to the server — the bottleneck
	// rank of the PS schedule.
	if cp.WaitOnRank[srv] == 0 {
		t.Fatalf("PS critical path should wait on the server, got %+v", cp.WaitOnRank)
	}
}

func TestRollupsAndReport(t *testing.T) {
	const dim = 1024
	s, _ := runEngineTrace(t, cluster.Config{
		Collective: netsim.CollectiveAllGather, ComputeSec: 1.0 / (1 << 14),
	}, uniformSparseInputs(t, dim, 4), dim, 2)
	tl := assemble1(t, s)

	rolls := tl.Rollups(-1)
	if len(rolls) != workers {
		t.Fatalf("rollups cover %d nodes, want %d", len(rolls), workers)
	}
	for _, r := range rolls {
		if r.Sends != 2*netsim.AllGatherMessages(workers) {
			t.Errorf("node %d sends = %d", r.Node, r.Sends)
		}
		if r.Busy[telemetry.SpanSend] <= 0 || r.Busy[telemetry.SpanRecv] <= 0 || r.Busy[telemetry.SpanCompute] <= 0 {
			t.Errorf("node %d busy rollup missing phases: %+v", r.Node, r.Busy)
		}
	}
	if m := tl.RecvWaitMatrix(0); len(m) == 0 {
		t.Error("recv matrix empty")
	}

	var rep strings.Builder
	if err := WriteReport(&rep, tl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"virtual", "critical path:", "step 0", "step 1", "paired"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}
