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
// selection — to the byte.
func TestQuantizedWireTrafficMatchesAccounting(t *testing.T) {
	const dim, workers = 400, 4
	ins := randomInputs(t, workers, dim, 0.05, 23)
	for _, format := range []encoding.Format{encoding.FormatPairs64, encoding.FormatPairsBF16} {
		_, e := engineExchange(t, Config{
			Workers: workers, Collective: netsim.CollectiveAllGather, Format: format,
		}, ins, dim)
		msgs, bytes := e.Transport().Totals()
		e.Close()
		if want := workers * netsim.AllGatherMessages(workers); msgs != want {
			t.Errorf("%v: %d messages, want %d", format, msgs, want)
		}
		wantBytes := 0
		for _, in := range ins {
			sz, err := encoding.Size(format, dim, in.Sparse.NNZ())
			if err != nil {
				t.Fatal(err)
			}
			wantBytes += netsim.AllGatherTrafficBytes(workers, sz)
		}
		if bytes != wantBytes {
			t.Errorf("%v: %d bytes on the wire, accounting says %d", format, bytes, wantBytes)
		}
	}
}

// TestQuantizedWireTrainingValueExact: with error feedback pre-rounding
// each selection to the wire's decoded precision, training over the
// pairs-bf16 all-gather is bit-identical — losses and final weights — to
// the in-process trainer fed the same pre-rounded selections, for every
// registry compressor.
func TestQuantizedWireTrainingValueExact(t *testing.T) {
	const workers, iters = 4, 5
	format := encoding.FormatPairsBF16
	for _, comp := range registryNames {
		t.Run(comp, func(t *testing.T) {
			e, err := New(Config{
				Workers: workers, Collective: netsim.CollectiveAllGather, Format: format, Verify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			wantLoss, wantW := trainTiny(t, workers, iters, comp, &format, nil)
			gotLoss, gotW := trainTiny(t, workers, iters, comp, &format, e)
			requireBitIdentical(t, "loss", gotLoss, wantLoss)
			requireBitIdentical(t, "weight", gotW, wantW)
		})
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
	for _, format := range []encoding.Format{encoding.FormatPairsBF16} {
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
			Format: format, Verify: true,
		}, ins, dim)
		e.Close()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: element %d = %v, want %v (decode-side mean diverges from RoundTripValues model)",
					format, i, got[i], want[i])
			}
		}
	}
}
