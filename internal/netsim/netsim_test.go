package netsim

import (
	"math"
	"testing"
)

func TestAllReduceDenseRingModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 25e9, LatencySec: 0}
	bytes := 100 << 20 // 100 MiB
	got := n.AllReduceDense(bytes)
	// Ring: 2(N-1)/N * bytes over the wire.
	want := 2 * 7.0 / 8.0 * float64(bytes) * 8 / 25e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("allreduce = %v, want %v", got, want)
	}
}

func TestAllGatherSparseModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 25e9, LatencySec: 0}
	bytes := 1 << 20
	got := n.AllGatherSparse(bytes)
	want := 7 * float64(bytes) * 8 / 25e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("allgather = %v, want %v", got, want)
	}
}

func TestLatencyTermsCounted(t *testing.T) {
	n := Network{Workers: 4, BandwidthBps: 1e12, LatencySec: 1e-3}
	// With huge bandwidth, latency dominates: 2(N-1) steps.
	if got := n.AllReduceDense(1000); math.Abs(got-6e-3) > 1e-6 {
		t.Errorf("allreduce latency share = %v", got)
	}
	if got := n.AllGatherSparse(1000); math.Abs(got-3e-3) > 1e-6 {
		t.Errorf("allgather latency share = %v", got)
	}
}

func TestSingleWorkerIsFree(t *testing.T) {
	n := Network{Workers: 1, BandwidthBps: 25e9, LatencySec: 1e-5}
	if n.AllReduceDense(1<<20) != 0 || n.AllGatherSparse(1<<20) != 0 || n.ParameterServer(1<<20, 1<<20) != 0 {
		t.Error("single worker communication should be free")
	}
}

func TestSparsificationWinsWhenSparseEnough(t *testing.T) {
	// The entire premise of the paper: at delta = 0.001 the sparse
	// all-gather beats the dense all-reduce even though all-gather scales
	// worse with N.
	n := Cluster25GbE(8)
	d := 66034000 // LSTM-PTB parameters
	denseBytes := 4 * d
	sparseBytes := 8 * d / 1000 // (idx+val) per kept element at 0.001
	dense := n.CommTime(denseBytes, 0, false)
	sparse := n.CommTime(0, sparseBytes, true)
	if sparse >= dense {
		t.Errorf("sparse %v not faster than dense %v at delta=0.001", sparse, dense)
	}
	// And at delta ~ 0.25 the crossover flips for 8 workers: 7*2delta > 2*7/8.
	sparseBytes = 8 * d / 4
	sparse = n.CommTime(0, sparseBytes, true)
	if sparse <= dense {
		t.Errorf("sparse %v should lose to dense %v at delta=0.25", sparse, dense)
	}
}

func TestParameterServerModel(t *testing.T) {
	n := Network{Workers: 8, BandwidthBps: 10e9, LatencySec: 0}
	got := n.ParameterServer(1<<20, 1<<20)
	want := 2 * 8 * float64(1<<20) * 8 / 10e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("ps = %v, want %v", got, want)
	}
}

func TestParameterServerAccounting(t *testing.T) {
	cases := []struct {
		name       string
		net        Network
		push, pull int
		want       float64
	}{
		{
			// N pushes + N pulls, each paying alpha: 2*4 messages.
			name: "per-message latency",
			net:  Network{Workers: 4, BandwidthBps: 1e15, LatencySec: 1e-3},
			push: 1000, pull: 1000,
			want: 8e-3 + 2*4*1000*8/1e15,
		},
		{
			name: "asymmetric push and pull",
			net:  Network{Workers: 2, BandwidthBps: 1e9, LatencySec: 1e-4},
			push: 1000, pull: 4000,
			want: 2*(1000*8/1e9+1e-4) + 2*(4000*8/1e9+1e-4),
		},
		{
			name: "single worker is free",
			net:  Network{Workers: 1, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 1 << 20, pull: 1 << 20,
			want: 0,
		},
		{
			name: "zero workers degenerate",
			net:  Network{Workers: 0, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 100, pull: 100,
			want: 0,
		},
		{
			name: "zero bandwidth degenerate",
			net:  Network{Workers: 4, BandwidthBps: 0, LatencySec: 1e-3},
			push: 100, pull: 100,
			want: 0,
		},
		{
			name: "empty messages still pay latency",
			net:  Network{Workers: 3, BandwidthBps: 1e9, LatencySec: 1e-3},
			push: 0, pull: 0,
			want: 6e-3,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.net.ParameterServer(c.push, c.pull)
			if c.want == 0 {
				if got != 0 {
					t.Errorf("ParameterServer = %v, want 0", got)
				}
				return
			}
			if math.Abs(got-c.want)/c.want > 1e-9 {
				t.Errorf("ParameterServer = %v, want %v", got, c.want)
			}
		})
	}
}

func TestCollectiveTimeDispatch(t *testing.T) {
	n := Cluster25GbE(8)
	denseBytes, sparseBytes := 4<<20, 1<<16
	cases := []struct {
		c          Collective
		compressed bool
		want       float64
	}{
		{CollectiveAuto, false, n.AllReduceDense(denseBytes)},
		{CollectiveAuto, true, n.AllGatherSparse(sparseBytes)},
		{CollectiveRing, false, n.AllReduceDense(denseBytes)},
		{CollectiveAllGather, true, n.AllGatherSparse(sparseBytes)},
		{CollectivePS, true, n.ParameterServer(sparseBytes, denseBytes)},
		{CollectivePS, false, n.ParameterServer(denseBytes, denseBytes)},
	}
	for _, c := range cases {
		if got := n.CollectiveTime(c.c, denseBytes, sparseBytes, c.compressed); got != c.want {
			t.Errorf("%v compressed=%v: %v, want %v", c.c, c.compressed, got, c.want)
		}
	}
}

func TestCollectiveMessageFormulas(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		if got := RingMessages(n); got != 2*(n-1) {
			t.Errorf("RingMessages(%d) = %d", n, got)
		}
		if got := AllGatherMessages(n); got != n-1 {
			t.Errorf("AllGatherMessages(%d) = %d", n, got)
		}
		if got := PSMessages(n); got != 2*n {
			t.Errorf("PSMessages(%d) = %d", n, got)
		}
	}
	if RingMessages(1) != 0 || AllGatherMessages(1) != 0 {
		t.Error("single worker should need no ring messages")
	}
	// PS keeps a distinct server node, so one worker still pushes and
	// pulls — matching what cluster.Engine actually puts on the wire.
	if PSMessages(1) != 2 {
		t.Errorf("PSMessages(1) = %d, want 2", PSMessages(1))
	}
	if PSMessages(0) != 0 {
		t.Errorf("PSMessages(0) = %d, want 0", PSMessages(0))
	}
}

func TestCollectiveStrings(t *testing.T) {
	for c, want := range map[Collective]string{
		CollectiveAuto: "auto", CollectiveRing: "ring",
		CollectiveAllGather: "allgather", CollectivePS: "ps",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
		if got, err := ParseCollective(want); got != c || err != nil {
			t.Errorf("ParseCollective(%q) = %v, %v; want %v", want, got, err, c)
		}
	}
	for _, name := range []string{"", "Ring", "all-gather", "collective(4)"} {
		if _, err := ParseCollective(name); err == nil {
			t.Errorf("ParseCollective(%q) accepted", name)
		}
	}
}

func TestCollectiveResolve(t *testing.T) {
	for _, c := range []struct {
		c          Collective
		compressed bool
		want       Collective
	}{
		{CollectiveAuto, true, CollectiveAllGather},
		{CollectiveAuto, false, CollectiveRing},
		{CollectiveRing, true, CollectiveRing},
		{CollectiveAllGather, false, CollectiveAllGather},
		{CollectivePS, true, CollectivePS},
		{CollectivePS, false, CollectivePS},
	} {
		if got := c.c.Resolve(c.compressed); got != c.want {
			t.Errorf("%v.Resolve(%v) = %v, want %v", c.c, c.compressed, got, c.want)
		}
	}
}

func TestPresetClusters(t *testing.T) {
	if c := Cluster25GbE(8); c.Workers != 8 || c.BandwidthBps != 25e9 {
		t.Error("25GbE preset wrong")
	}
	if c := NVLinkNode(8); c.BandwidthBps <= 25e9 {
		t.Error("NVLink preset should be much faster than Ethernet")
	}
}

func TestDegenerateNetworks(t *testing.T) {
	bad := Network{Workers: 0, BandwidthBps: 1e9}
	if bad.AllReduceDense(100) != 0 {
		t.Error("invalid network should cost 0 (degenerate)")
	}
	bad = Network{Workers: 4, BandwidthBps: 0}
	if bad.AllGatherSparse(100) != 0 {
		t.Error("zero-bandwidth network should cost 0 (degenerate)")
	}
}
