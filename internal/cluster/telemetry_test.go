package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestEngineTelemetryMatchesInstrumentedAndFormulas is the tentpole
// exactness cross-check: for every collective, the telemetry
// aggregator's message/byte totals must equal the Instrumented
// transport's exact counters AND the netsim closed-form message count —
// three independent accountings of the same traffic, agreeing to the
// byte.
func TestEngineTelemetryMatchesInstrumentedAndFormulas(t *testing.T) {
	const workers, dim, iters = 4, 400, 3
	cases := []struct {
		name   string
		coll   netsim.Collective
		sparse bool
	}{
		{"ring", netsim.CollectiveRing, false},
		{"allgather", netsim.CollectiveAllGather, true},
		{"ps", netsim.CollectivePS, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins := randomInputs(t, workers, dim, 0.05, 17)
			if !tc.sparse {
				for i := range ins {
					ins[i].Sparse = nil
				}
			}
			agg := telemetry.NewAggregator()
			e, err := New(Config{
				Workers: workers, Collective: tc.coll, Telemetry: telemetry.New(agg),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			aggOut := make([]float64, dim)
			for it := 0; it < iters; it++ {
				if err := e.Exchange(it, ins, aggOut); err != nil {
					t.Fatal(err)
				}
			}

			wantMsgs := iters * tc.coll.Messages(workers)
			msgs, bytes := e.Transport().Totals()
			rmsgs, rbytes := e.Transport().RecvTotals()
			if msgs != wantMsgs {
				t.Errorf("instrumented sent %d messages, formula says %d", msgs, wantMsgs)
			}
			if got := agg.Total(telemetry.CounterSentMessages); got != int64(msgs) {
				t.Errorf("telemetry sent messages = %d, instrumented counted %d", got, msgs)
			}
			if got := agg.Total(telemetry.CounterSentBytes); got != int64(bytes) {
				t.Errorf("telemetry sent bytes = %d, instrumented counted %d", got, bytes)
			}
			if got := agg.Total(telemetry.CounterRecvMessages); got != int64(rmsgs) {
				t.Errorf("telemetry recv messages = %d, instrumented counted %d", got, rmsgs)
			}
			if got := agg.Total(telemetry.CounterRecvBytes); got != int64(rbytes) {
				t.Errorf("telemetry recv bytes = %d, instrumented counted %d", got, rbytes)
			}

			// Per-link attribution must match link for link, and the links
			// must partition the totals.
			var linkMsgSum, linkByteSum int64
			for _, l := range agg.LinksSeen() {
				lc := agg.LinkTotals(int(l.From), int(l.To))
				st := e.Transport().LinkStats(int(l.From), int(l.To))
				if lc.SentMessages != int64(st.Messages) || lc.SentBytes != int64(st.Bytes) {
					t.Errorf("link %d->%d: telemetry %d msgs/%d bytes, instrumented %d/%d",
						l.From, l.To, lc.SentMessages, lc.SentBytes, st.Messages, st.Bytes)
				}
				rst := e.Transport().RecvLinkStats(int(l.From), int(l.To))
				if lc.RecvMessages != int64(rst.Messages) || lc.RecvBytes != int64(rst.Bytes) {
					t.Errorf("link %d->%d recv: telemetry %d msgs/%d bytes, instrumented %d/%d",
						l.From, l.To, lc.RecvMessages, lc.RecvBytes, rst.Messages, rst.Bytes)
				}
				linkMsgSum += lc.SentMessages
				linkByteSum += lc.SentBytes
			}
			if linkMsgSum != int64(msgs) || linkByteSum != int64(bytes) {
				t.Errorf("links sum to %d msgs/%d bytes, totals are %d/%d", linkMsgSum, linkByteSum, msgs, bytes)
			}

			// Every round was spanned: workers rounds per exchange, plus the
			// server's round span under PS.
			wantSpans := int64(iters * workers)
			if tc.coll == netsim.CollectivePS {
				wantSpans += int64(iters)
			}
			var collectives int64
			for _, s := range agg.Spans() {
				if s.Kind == telemetry.SpanCollective {
					collectives = s.Count
				}
			}
			if collectives != wantSpans {
				t.Errorf("recorded %d collective spans, want %d", collectives, wantSpans)
			}
		})
	}
}

// eventLog is a Sink that keeps every event.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.Event // guarded by mu
}

func (l *eventLog) Emit(e telemetry.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// TestEngineServerSpansCarryCallerStep: every node of a PS engine —
// the server included — tags its collective span with the step the
// caller passed, also when the first exchange is not step 0 (a resumed
// run, a harness that offsets steps).
func TestEngineServerSpansCarryCallerStep(t *testing.T) {
	const workers, dim = 3, 64
	var log eventLog
	e, err := New(Config{Workers: workers, Collective: netsim.CollectivePS, Telemetry: telemetry.New(&log)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ins := randomInputs(t, workers, dim, 0.1, 3)
	agg := make([]float64, dim)
	steps := []int64{7, 8, 9}
	for _, step := range steps {
		if err := e.Exchange(int(step), ins, agg); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int32][]int64)
	for _, ev := range log.events {
		if ev.Type == telemetry.EventSpan && ev.Span == telemetry.SpanCollective {
			got[ev.Node] = append(got[ev.Node], ev.Step)
		}
	}
	for node := int32(0); node <= workers; node++ {
		if fmt.Sprint(got[node]) != fmt.Sprint(steps) {
			t.Errorf("node %d collective spans carry steps %v, want %v", node, got[node], steps)
		}
	}
}

// TestServeTagsRoundsFromFirstStep: a standalone parameter-server Node
// started at first = 4 — the server process of a deployment resumed from
// a step-4 checkpoint — tags its collective spans and every message it
// sends or receives with steps 4, 5, 6: the steps its workers run, not a
// round count of its own.
func TestServeTagsRoundsFromFirstStep(t *testing.T) {
	const workers, dim, first, rounds = 2, 64, 4, 3
	tp, err := NewChanTransport(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	var log eventLog
	nodes := make([]*Node, workers+1)
	for rank := range nodes {
		var tel *telemetry.Tracer
		if rank == workers {
			tel = telemetry.New(&log)
		}
		nodes[rank], err = NewNode(NodeConfig{
			Workers: workers, Rank: rank, Collective: netsim.CollectivePS, Transport: tp, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	served := make(chan error, 1)
	go func() { served <- nodes[workers].Serve(first, rounds) }()
	ins := randomInputs(t, workers, dim, 0.1, 5)
	if err := runAll(workers, func(rank int) error {
		agg := make([]float64, dim)
		for step := first; step < first+rounds; step++ {
			if err := nodes[rank].Exchange(step, ins[rank:rank+1], agg); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	var spans []int64
	msgs := make(map[int64]int)
	for _, ev := range log.events {
		switch {
		case ev.Type == telemetry.EventSpan && ev.Span == telemetry.SpanCollective:
			spans = append(spans, ev.Step)
		case ev.Type == telemetry.EventCounter && (ev.Counter == telemetry.CounterSentMessages || ev.Counter == telemetry.CounterRecvMessages):
			msgs[ev.Step]++
		}
	}
	if want := []int64{4, 5, 6}; fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Errorf("server collective spans carry steps %v, want %v", spans, want)
	}
	for step := int64(first); step < first+rounds; step++ {
		if msgs[step] != netsim.PSMessages(workers) {
			t.Errorf("step %d: %d server message events, want %d", step, msgs[step], netsim.PSMessages(workers))
		}
	}
	if len(msgs) != rounds {
		t.Errorf("server message events carry steps %v, want exactly %d..%d", msgs, first, first+rounds-1)
	}
}

// TestTCPWireBytesExact pins the wire-level accounting on a raw
// TCPTransport link: wire bytes exceed the payload bytes by exactly 4
// per message (frame header) plus 12 per connection (handshake), on
// both the write and the read side, and the established connection is
// recorded as one dial span.
func TestTCPWireBytesExact(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	aAgg, bAgg := telemetry.NewAggregator(), telemetry.NewAggregator()
	a, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{0}, Telemetry: telemetry.New(aAgg)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{1}, Telemetry: telemetry.New(bAgg)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payloadBytes := 0
	const msgs = 10
	for m := 0; m < msgs; m++ {
		payload := make([]byte, 100+m)
		if err := a.Send(0, 1, payload); err != nil {
			t.Fatal(err)
		}
		payloadBytes += len(payload)
	}
	for m := 0; m < msgs; m++ {
		if _, err := b.Recv(1, 0); err != nil {
			t.Fatal(err)
		}
	}

	want := int64(payloadBytes + 4*msgs + 12) // frames + one handshake
	if got := aAgg.Total(telemetry.CounterWireSentBytes); got != want {
		t.Errorf("sender wire bytes = %d, want %d (payload %d + 4*%d + 12)", got, want, payloadBytes, msgs)
	}
	if got := bAgg.Total(telemetry.CounterWireRecvBytes); got != want {
		t.Errorf("receiver wire bytes = %d, want %d", got, want)
	}
	if got := aAgg.LinkTotals(0, 1).WireSentBytes; got != want {
		t.Errorf("link 0->1 wire bytes = %d, want %d", got, want)
	}
	var dials int64
	for _, s := range aAgg.Spans() {
		if s.Kind == telemetry.SpanDial {
			dials = s.Count
		}
	}
	if dials != 1 {
		t.Errorf("recorded %d dial spans, want 1", dials)
	}
	if got := aAgg.Total(telemetry.CounterDialRetries); got != 0 {
		t.Errorf("counted %d dial retries against a live listener, want 0", got)
	}
}

// TestTCPDialRetriesCounted delays the peer's listener so the lazy dial
// must retry, and asserts the retries show up on the counter.
func TestTCPDialRetriesCounted(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	agg := telemetry.NewAggregator()
	a, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{0}, Telemetry: telemetry.New(agg)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	go func() {
		time.Sleep(150 * time.Millisecond)
		b, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{1}})
		if err != nil {
			return
		}
		// Keep b alive long enough for a's handshake to land.
		time.Sleep(2 * time.Second)
		b.Close()
	}()
	if err := a.Send(0, 1, []byte{1}); err != nil { // blocks in the retry loop
		t.Fatal(err)
	}
	if got := agg.Total(telemetry.CounterDialRetries); got < 1 {
		t.Errorf("counted %d dial retries, want >= 1 (listener came up late)", got)
	}
	if got := agg.LinkTotals(0, 1).DialRetries; got < 1 {
		t.Errorf("link 0->1 retries = %d, want >= 1", got)
	}
}

// telemetryRank is one rank's observability state in the deployment test.
type telemetryRank struct {
	rank     int
	sent     int64 // /metrics sidco_sent_messages_total
	instMsgs int
	err      error
}

// TestDeploymentMetricsEndpointExact is the acceptance criterion
// end-to-end: a multi-node TCP loopback deployment where every rank
// exposes its aggregator over a real HTTP /metrics endpoint; the
// scraped per-link byte counters must partition the totals and the
// totals must equal the Instrumented counters and the netsim formula
// exactly. This is the in-test twin of
// `sidco-node -launch N -metrics auto -check`.
func TestDeploymentMetricsEndpointExact(t *testing.T) {
	const workers, iters = 3, 4
	coll := netsim.CollectiveAllGather
	addrs, err := FreeLoopbackAddrs(workers)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan telemetryRank, workers)
	runRank := func(rank int) {
		res := telemetryRank{rank: rank}
		defer func() { results <- res }()
		agg := telemetry.NewAggregator()
		tel := telemetry.New(agg)
		tp, err := NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{rank}, Telemetry: tel})
		if err != nil {
			res.err = err
			return
		}
		defer tp.Close()
		nd, err := NewNode(NodeConfig{
			Workers: workers, Rank: rank, Collective: coll, Transport: tp, Telemetry: tel,
		})
		if err != nil {
			res.err = err
			return
		}
		cfg := tinyTrainerCfg(1, rank, "topk", 0.1, 42, nd)
		cfg.Telemetry = tel
		tr, err := dist.NewTrainer(cfg)
		if err != nil {
			res.err = err
			return
		}
		for it := 0; it < iters; it++ {
			local, err := tr.Step()
			if err != nil {
				res.err = err
				return
			}
			if _, err := nd.MeanScalar(local); err != nil {
				res.err = err
				return
			}
		}

		// Scrape this rank's aggregator over real HTTP, like a Prometheus
		// server would.
		srv := httptest.NewServer(telemetry.Handler(agg))
		defer srv.Close()
		if res.err = checkHealthz(srv.URL); res.err != nil {
			return
		}
		m, err := scrapeMetrics(srv.URL)
		if err != nil {
			res.err = err
			return
		}

		instMsgs, instBytes := nd.Transport().Totals()
		instRecvMsgs, instRecvBytes := nd.Transport().RecvTotals()
		res.instMsgs = instMsgs
		res.sent = int64(m["sidco_sent_messages_total"])
		checks := []struct {
			metric string
			want   float64
		}{
			{"sidco_sent_messages_total", float64(instMsgs)},
			{"sidco_sent_bytes_total", float64(instBytes)},
			{"sidco_recv_messages_total", float64(instRecvMsgs)},
			{"sidco_recv_bytes_total", float64(instRecvBytes)},
			{fmt.Sprintf("sidco_node_steps_total{node=%q}", fmt.Sprint(rank)), float64(iters)},
			{fmt.Sprintf("sidco_span_duration_seconds_count{span=%q}", "step"), float64(iters)},
		}
		for _, c := range checks {
			if got := m[c.metric]; got != c.want {
				res.err = fmt.Errorf("rank %d: %s = %v, want %v", rank, c.metric, got, c.want)
				return
			}
		}
		// Per-link byte counters scraped off the wire must match the
		// Instrumented per-link stats and partition the rank's totals.
		var linkSent, linkRecv float64
		for peer := 0; peer < workers; peer++ {
			if peer == rank {
				continue
			}
			sk := fmt.Sprintf("sidco_link_sent_bytes_total{from=%q,to=%q}", fmt.Sprint(rank), fmt.Sprint(peer))
			if v, ok := m[sk]; ok {
				if st := nd.Transport().LinkStats(rank, peer); v != float64(st.Bytes) {
					res.err = fmt.Errorf("rank %d: %s = %v, instrumented says %d", rank, sk, v, st.Bytes)
					return
				}
				linkSent += v
			}
			rk := fmt.Sprintf("sidco_link_recv_bytes_total{from=%q,to=%q}", fmt.Sprint(peer), fmt.Sprint(rank))
			if v, ok := m[rk]; ok {
				if st := nd.Transport().RecvLinkStats(peer, rank); v != float64(st.Bytes) {
					res.err = fmt.Errorf("rank %d: %s = %v, instrumented says %d", rank, rk, v, st.Bytes)
					return
				}
				linkRecv += v
			}
		}
		if linkSent != float64(instBytes) || linkRecv != float64(instRecvBytes) {
			res.err = fmt.Errorf("rank %d: links sum to %v sent/%v recv bytes, totals are %d/%d",
				rank, linkSent, linkRecv, instBytes, instRecvBytes)
		}
	}
	for rank := 0; rank < workers; rank++ {
		go runRank(rank)
	}
	wantPerRank := iters * netsim.AllGatherMessages(workers)
	for i := 0; i < workers; i++ {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatal(res.err)
			}
			if res.sent != int64(wantPerRank) || res.instMsgs != wantPerRank {
				t.Errorf("rank %d: scraped %d sent messages, instrumented %d, formula says %d",
					res.rank, res.sent, res.instMsgs, wantPerRank)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("deployment did not finish")
		}
	}
}

func checkHealthz(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		return fmt.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	return nil
}

func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return telemetry.ParseProm(string(body))
}
