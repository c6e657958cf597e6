package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// runAll executes f concurrently for nodes 0..n-1 and returns the first
// error in node order.
func runAll(n int, f func(node int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pushPull is the worker half of the parameter-server exchange: push the
// local payload to the server node, then block for the aggregated reply.
func pushPull(tp Transport, worker, server int, payload []byte) ([]byte, error) {
	if err := tp.Send(worker, server, payload); err != nil {
		return nil, err
	}
	return tp.Recv(worker, server)
}

// TestGroupSchedulesRejectBadMembership: every schedule refuses, before
// its first message, an empty group, a member outside the transport and a
// caller that is not a member.
func TestGroupSchedulesRejectBadMembership(t *testing.T) {
	tp, err := NewChanTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	for name, tc := range map[string]struct {
		members []int
		self    int
	}{
		"empty group":       {nil, 0},
		"member past nodes": {[]int{0, 1, 3}, 0},
		"negative member":   {[]int{-1, 0}, 0},
		"self not a member": {[]int{0, 2}, 1},
	} {
		if err := ringAllReduceGroup(tp, tp.Recv, tc.members, tc.self, make([]float64, 4), make([]float64, 4), nil); err == nil {
			t.Errorf("%s: ring all-reduce accepted it", name)
		}
		if _, err := allGatherGroup(tp, tp.Recv, tc.members, tc.self, []byte{1}, nil); err == nil {
			t.Errorf("%s: all-gather accepted it", name)
		}
	}
}

// TestRingAllReduceSums: every node ends with the members' mean, into an
// out of its own or in place over its input, and a separate input is left
// as it was.
func TestRingAllReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, d := range []int{1, 5, 16, 33} {
			for _, inPlace := range []bool{false, true} {
				tp, err := NewChanTransport(n)
				if err != nil {
					t.Fatal(err)
				}
				// Integer-valued data keeps float addition exact regardless
				// of reduction order, so the mean check is bitwise.
				src, out := make([][]float64, n), make([][]float64, n)
				sum := make([]float64, d)
				for i := range src {
					src[i] = make([]float64, d)
					for j := range src[i] {
						src[i][j] = float64((i+1)*(j+3)%17 - 8)
						sum[j] += src[i][j]
					}
					out[i] = make([]float64, d)
					if inPlace {
						out[i] = src[i]
					}
				}
				if err := runAll(n, func(node int) error {
					return ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, src[node], out[node], nil)
				}); err != nil {
					t.Fatalf("n=%d d=%d: %v", n, d, err)
				}
				for i := range out {
					for j := range sum {
						if want := sum[j] * (1 / float64(n)); out[i][j] != want {
							t.Fatalf("n=%d d=%d in place %v: node %d element %d = %v, want %v",
								n, d, inPlace, i, j, out[i][j], want)
						}
						if !inPlace && src[i][j] != float64((i+1)*(j+3)%17-8) {
							t.Fatalf("n=%d d=%d: node %d input element %d rewritten to %v", n, d, i, j, src[i][j])
						}
					}
				}
				tp.Close()
			}
		}
	}
}

func TestAllGatherReturnsAllPayloadsByOrigin(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		tp, err := NewChanTransport(n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][][]byte, n)
		if err := runAll(n, func(node int) error {
			own := []byte(fmt.Sprintf("payload-from-%d", node))
			bufs, err := allGatherGroup(tp, tp.Recv, identityMembers(n), node, own, nil)
			got[node] = bufs
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < n; node++ {
			for origin := 0; origin < n; origin++ {
				want := fmt.Sprintf("payload-from-%d", origin)
				if string(got[node][origin]) != want {
					t.Fatalf("n=%d: node %d slot %d = %q, want %q",
						n, node, origin, got[node][origin], want)
				}
			}
		}
		tp.Close()
	}
}

func TestParameterServerExchange(t *testing.T) {
	n := 4
	tp, err := NewChanTransport(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	server := n
	replies := make([][]byte, n)
	var sum int
	var order []int
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- psServeGroup(tp, tp.Recv, server, identityMembers(n),
			func(_, worker int, payload []byte) error {
				order = append(order, worker)
				sum += int(payload[0])
				return nil
			},
			func() ([]byte, error) { return []byte{byte(sum)}, nil })
	}()
	if err := runAll(n, func(node int) error {
		r, err := pushPull(tp, node, server, []byte{byte(10 * (node + 1))})
		replies[node] = r
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	for w, r := range replies {
		if len(r) != 1 || int(r[0]) != 100 {
			t.Errorf("worker %d reply %v, want [100]", w, r)
		}
	}
	for w, o := range order {
		if o != w {
			t.Fatalf("server combined in order %v, want worker-index order", order)
		}
	}
	tp.Close()
}

func TestCollectiveMessageCountsMatchNetsimFormulas(t *testing.T) {
	d := 64
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("ring-n%d", n), func(t *testing.T) {
			inner, _ := NewChanTransport(n)
			tp := NewInstrumented(inner, nil)
			data := make([][]float64, n)
			for i := range data {
				data[i] = make([]float64, d)
			}
			if err := runAll(n, func(node int) error {
				return ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, data[node], data[node], nil)
			}); err != nil {
				t.Fatal(err)
			}
			// Every ring link carries exactly the per-node step count.
			for i := 0; i < n; i++ {
				st := tp.LinkStats(i, (i+1)%n)
				if st.Messages != netsim.RingMessages(n) {
					t.Errorf("link %d->%d: %d messages, want %d", i, (i+1)%n, st.Messages, netsim.RingMessages(n))
				}
			}
			msgs, bytes := tp.Totals()
			if want := n * netsim.RingMessages(n); msgs != want {
				t.Errorf("total messages %d, want %d", msgs, want)
			}
			// Each of the two phases moves every chunk n-1 times: 2(n-1)*8d.
			if want := 2 * (n - 1) * 8 * d; bytes != want {
				t.Errorf("total bytes %d, want %d", bytes, want)
			}
			inner.Close()
		})
		t.Run(fmt.Sprintf("allgather-n%d", n), func(t *testing.T) {
			inner, _ := NewChanTransport(n)
			tp := NewInstrumented(inner, nil)
			payload := make([]byte, 100)
			if err := runAll(n, func(node int) error {
				_, err := allGatherGroup(tp, tp.Recv, identityMembers(n), node, payload, nil)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				st := tp.LinkStats(i, (i+1)%n)
				if st.Messages != netsim.AllGatherMessages(n) {
					t.Errorf("link %d->%d: %d messages, want %d", i, (i+1)%n, st.Messages, netsim.AllGatherMessages(n))
				}
			}
			msgs, bytes := tp.Totals()
			if want := n * netsim.AllGatherMessages(n); msgs != want {
				t.Errorf("total messages %d, want %d", msgs, want)
			}
			if want := n * (n - 1) * len(payload); bytes != want {
				t.Errorf("total bytes %d, want %d", bytes, want)
			}
			inner.Close()
		})
		t.Run(fmt.Sprintf("ps-n%d", n), func(t *testing.T) {
			inner, _ := NewChanTransport(n + 1)
			tp := NewInstrumented(inner, nil)
			serverErr := make(chan error, 1)
			go func() {
				serverErr <- psServeGroup(tp, tp.Recv, n, identityMembers(n),
					func(int, int, []byte) error { return nil },
					func() ([]byte, error) { return make([]byte, 40), nil })
			}()
			if err := runAll(n, func(node int) error {
				_, err := pushPull(tp, node, n, make([]byte, 25))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := <-serverErr; err != nil {
				t.Fatal(err)
			}
			msgs, bytes := tp.Totals()
			if want := netsim.PSMessages(n); msgs != want {
				t.Errorf("total messages %d, want %d", msgs, want)
			}
			if want := n*25 + n*40; bytes != want {
				t.Errorf("total bytes %d, want %d", bytes, want)
			}
			inner.Close()
		})
	}
}

func TestVirtualTimeMatchesNetsimAlphaBeta(t *testing.T) {
	// Uniform payloads on a homogeneous fabric: the instrumented
	// transport's discrete-event clocks must land exactly on the
	// alpha-beta closed forms.
	net := netsim.Network{Workers: 4, BandwidthBps: 1e9, LatencySec: 1e-4}
	n := net.Workers
	const d = 4096 // divisible by n: equal ring chunks

	t.Run("ring", func(t *testing.T) {
		inner, _ := NewChanTransport(n)
		tp := NewInstrumented(inner, ScenarioFromNetwork(net))
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, d)
		}
		if err := runAll(n, func(node int) error {
			return ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, data[node], data[node], nil)
		}); err != nil {
			t.Fatal(err)
		}
		want := net.AllReduceDense(8 * d)
		if got := tp.Elapsed(); relErr(got, want) > 1e-9 {
			t.Errorf("ring elapsed %v, netsim predicts %v", got, want)
		}
		inner.Close()
	})
	t.Run("allgather", func(t *testing.T) {
		inner, _ := NewChanTransport(n)
		tp := NewInstrumented(inner, ScenarioFromNetwork(net))
		payload := make([]byte, 8*d/100)
		if err := runAll(n, func(node int) error {
			_, err := allGatherGroup(tp, tp.Recv, identityMembers(n), node, payload, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want := net.AllGatherSparse(len(payload))
		if got := tp.Elapsed(); relErr(got, want) > 1e-9 {
			t.Errorf("allgather elapsed %v, netsim predicts %v", got, want)
		}
		inner.Close()
	})
	t.Run("ps", func(t *testing.T) {
		inner, _ := NewChanTransport(n + 1)
		tp := NewInstrumented(inner, ScenarioFromNetwork(net))
		push, pull := 120, 4096
		serverErr := make(chan error, 1)
		go func() {
			serverErr <- psServeGroup(tp, tp.Recv, n, identityMembers(n),
				func(int, int, []byte) error { return nil },
				func() ([]byte, error) { return make([]byte, pull), nil })
		}()
		if err := runAll(n, func(node int) error {
			_, err := pushPull(tp, node, n, make([]byte, push))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := <-serverErr; err != nil {
			t.Fatal(err)
		}
		want := net.ParameterServer(push, pull)
		if got := tp.Elapsed(); relErr(got, want) > 1e-9 {
			t.Errorf("ps elapsed %v, netsim predicts %v", got, want)
		}
		inner.Close()
	})
}

func TestScenarioKnobs(t *testing.T) {
	net := netsim.Network{Workers: 4, BandwidthBps: 1e9, LatencySec: 1e-5}
	n := net.Workers
	base := func(scen *Scenario, compute map[int]float64) float64 {
		inner, _ := NewChanTransport(n)
		tp := NewInstrumented(inner, scen)
		defer inner.Close()
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, 1024)
		}
		if err := runAll(n, func(node int) error {
			tp.Compute(node, compute[node])
			return ringAllReduceGroup(tp, tp.Recv, identityMembers(n), node, data[node], data[node], nil)
		}); err != nil {
			t.Fatal(err)
		}
		return tp.Elapsed()
	}
	work := map[int]float64{0: 1e-3, 1: 1e-3, 2: 1e-3, 3: 1e-3}

	nominal := base(ScenarioFromNetwork(net), work)

	// A 5x straggler on one node must slow the synchronous step by
	// roughly the extra compute it burns.
	slow := ScenarioFromNetwork(net)
	slow.StragglerFactor = map[int]float64{2: 5}
	straggled := base(slow, work)
	if straggled <= nominal+3e-3 {
		t.Errorf("straggler elapsed %v, nominal %v: expected ~4ms of drag", straggled, nominal)
	}

	// Degrading one ring link to a tenth of the bandwidth must slow the
	// collective.
	weak := ScenarioFromNetwork(net)
	weak.LinkBandwidthBps = map[Link]float64{{From: 1, To: 2}: net.BandwidthBps / 10}
	degraded := base(weak, work)
	if degraded <= nominal {
		t.Errorf("degraded-link elapsed %v not above nominal %v", degraded, nominal)
	}
}

func TestTransportErrors(t *testing.T) {
	tp, err := NewChanTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChanTransport(0); err == nil {
		t.Error("0 nodes should error")
	}
	if err := tp.Send(0, 5, nil); err == nil {
		t.Error("out-of-range destination should error")
	}
	if err := tp.Send(1, 1, nil); err == nil {
		t.Error("self-send should error")
	}
	if _, err := tp.Recv(2, 0); err == nil {
		t.Error("out-of-range receiver should error")
	}
	// Messages delivered before Close still drain; then Recv errors.
	if err := tp.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	tp.Close()
	if p, err := tp.Recv(1, 0); err != nil || len(p) != 1 {
		t.Errorf("pre-close message should drain: %v %v", p, err)
	}
	if _, err := tp.Recv(1, 0); err == nil {
		t.Error("recv on closed drained transport should error")
	}
	if err := tp.Send(0, 1, []byte{2}); err == nil {
		// Buffered link could still accept; the contract only requires an
		// eventual error, so a blocked send must fail once capacity is gone.
		for i := 0; i < linkDepth+1; i++ {
			if err := tp.Send(0, 1, []byte{2}); err != nil {
				return
			}
		}
		t.Error("send on closed transport never errored")
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestRingWireMatchesF64Bytes: a reduce-scatter chunk leaves as a view of
// the gradient on little-endian hosts, and its bytes must be exactly the
// serialisation every host puts on the wire, edge values included.
func TestRingWireMatchesF64Bytes(t *testing.T) {
	for name, xs := range map[string][]float64{
		"empty":     {},
		"zeros":     {0, math.Copysign(0, -1)},
		"infinity":  {math.Inf(1), math.Inf(-1)},
		"nan":       {math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef)},
		"subnormal": {math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)},
		"extremes":  {math.MaxFloat64, -math.MaxFloat64, 1, -1, 0x1p-1022},
	} {
		got, want := ringWire(xs), f64Bytes(xs)
		if string(got) != string(want) {
			t.Errorf("%s: wire bytes %x, want %x", name, got, want)
		}
		back := make([]float64, len(xs))
		if err := f64Copy(back, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range xs {
			if math.Float64bits(back[i]) != math.Float64bits(xs[i]) {
				t.Errorf("%s: element %d comes back as %#x, want %#x", name, i, math.Float64bits(back[i]), math.Float64bits(xs[i]))
			}
		}
	}
}

// TestF64FrameViewsOnlyAlignedFrames: a received ring chunk is read in
// place only from a frame that starts on an 8-byte boundary of a
// little-endian host; any other frame is decoded. Either way f64Frame,
// f64Copy, f64Sum and f64Mean compute the wire's values bit for bit (the
// reduces also with dst aliasing src, as the ring's in-place callers do),
// and a frame of the wrong length is refused before anything is read.
func TestF64FrameViewsOnlyAlignedFrames(t *testing.T) {
	xs := []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, -1.5}
	src := []float64{0, -1, 2, math.SmallestNonzeroFloat64, 1e300}
	wire := f64Bytes(xs)
	buf := make([]byte, len(wire)+1)
	same := func(what string, shift int, got []float64, want func(i int) float64) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want(i)) {
				t.Errorf("offset %d: %s element %d = %#x, want %#x", shift, what, i, math.Float64bits(got[i]), math.Float64bits(want(i)))
			}
		}
	}
	for _, shift := range []int{0, 1} {
		frame := buf[shift : shift+len(wire)]
		copy(frame, wire)
		dst := make([]float64, len(xs))
		got, err := f64Frame(dst, frame)
		if err != nil {
			t.Fatal(err)
		}
		inPlace := &got[0] != &dst[0]
		if want := littleEndian && shift == 0; inPlace != want {
			t.Errorf("offset %d: read in place = %v, want %v", shift, inPlace, want)
		}
		same("frame", shift, got, func(i int) float64 { return xs[i] })
		if err := f64Copy(dst, frame); err != nil {
			t.Fatal(err)
		}
		same("copy", shift, dst, func(i int) float64 { return xs[i] })
		sum := append([]float64(nil), src...)
		if err := f64Sum(sum, sum, frame); err != nil {
			t.Fatal(err)
		}
		same("sum", shift, sum, func(i int) float64 { return src[i] + xs[i] })
		mean := append([]float64(nil), src...)
		if err := f64Mean(mean, mean, frame, 0.25); err != nil {
			t.Fatal(err)
		}
		same("mean", shift, mean, func(i int) float64 { return (src[i] + xs[i]) * 0.25 })
	}
	short := wire[:len(wire)-8]
	if _, err := f64Frame(make([]float64, len(xs)), short); err == nil {
		t.Error("a short frame was accepted")
	}
	if f64Copy(make([]float64, len(xs)), short) == nil || f64Sum(make([]float64, len(xs)), src, short) == nil ||
		f64Mean(make([]float64, len(xs)), src, short, 1) == nil {
		t.Error("a short frame was reduced or copied")
	}
}
