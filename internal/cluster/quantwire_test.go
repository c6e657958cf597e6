package cluster

import (
	"math"
	"testing"

	"repro/internal/encoding"
	"repro/internal/netsim"
)

// TestQuantizedWireTrafficMatchesAccounting pins the exact-traffic
// contract for every data-independent wire format, quantized ones
// included: the instrumented byte counters must equal netsim's
// all-gather closed form fed with encoding.Size of each worker's
// per-chunk selection — to the byte, monolithic and chunked.
func TestQuantizedWireTrafficMatchesAccounting(t *testing.T) {
	const dim, workers = 400, 4
	ins := randomInputs(t, workers, dim, 0.05, 23)
	for _, wire := range []Wire{WireLossless, WirePairs, WirePairsF16, WirePairsBF16, WirePairsI8} {
		format, err := wire.Format()
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{1, 8} {
			_, e := engineExchange(t, Config{
				Workers: workers, Collective: netsim.CollectiveAllGather,
				Format: wire, Chunks: chunks,
			}, ins, dim)
			msgs, bytes := e.Transport().Totals()
			e.Close()
			if want := workers * netsim.ChunkedAllGatherMessages(workers, chunks); msgs != want {
				t.Errorf("%v chunks=%d: %d messages, want %d", wire, chunks, msgs, want)
			}
			wantBytes := 0
			for _, in := range ins {
				for _, nnz := range ChunkNNZ(in.Sparse.Idx, dim, chunks) {
					sz, err := encoding.Size(format, dim, nnz)
					if err != nil {
						t.Fatal(err)
					}
					wantBytes += netsim.AllGatherTrafficBytes(workers, sz)
				}
			}
			if bytes != wantBytes {
				t.Errorf("%v chunks=%d: %d bytes on the wire, accounting says %d", wire, chunks, bytes, wantBytes)
			}
		}
	}
}

// TestQuantizedWireAggregates checks the value semantics of the
// quantized wires: every node agrees (Verify), and the aggregate equals
// the mean of the per-worker selections pushed through the format's
// RoundTripValues — i.e. the engine loses exactly the precision the
// format defines, nothing more.
func TestQuantizedWireAggregates(t *testing.T) {
	const dim, workers = 257, 3
	ins := randomInputs(t, workers, dim, 0.1, 29)
	for _, wire := range []Wire{WirePairsF16, WirePairsBF16, WirePairsI8} {
		format, err := wire.Format()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, dim)
		for _, in := range ins {
			vals := append([]float64(nil), in.Sparse.Vals...)
			if err := encoding.RoundTripValues(format, vals); err != nil {
				t.Fatal(err)
			}
			for i, j := range in.Sparse.Idx {
				want[j] += vals[i]
			}
		}
		for i := range want {
			want[i] *= 1 / float64(workers) // Scale's reciprocal multiply, not a divide
		}
		got, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather,
			Format: wire, Verify: true,
		}, ins, dim)
		e.Close()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: element %d = %v, want %v (decode-side mean diverges from RoundTripValues model)",
					wire, i, got[i], want[i])
			}
		}
	}
}
