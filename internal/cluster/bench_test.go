package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/netsim"
	"repro/internal/tensor"
)

// benchInputs builds one reusable exchange input set.
func benchInputs(b *testing.B, workers, dim int, delta float64) []dist.ExchangeInput {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	ins := make([]dist.ExchangeInput, workers)
	for w := range ins {
		dense := make([]float64, dim)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		ins[w] = dist.ExchangeInput{Worker: w, Dense: dense}
		if delta > 0 {
			s, err := compress.FreshCompress(compress.NewTopK(), dense, delta)
			if err != nil {
				b.Fatal(err)
			}
			ins[w].Sparse = s
		}
	}
	return ins
}

// benchExchange times one collective exchange per iteration and reports
// measured traffic alongside netsim's alpha-beta prediction for the
// paper's 25 GbE fabric, so `-bench Exchange` doubles as the
// measured-vs-predicted cross-validation table.
func benchExchange(b *testing.B, workers, dim int, delta float64, coll netsim.Collective) {
	ins := benchInputs(b, workers, dim, delta)
	e, err := New(Config{Workers: workers, Collective: coll})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	agg := make([]float64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Exchange(i, ins, agg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	msgs, bytes := e.Transport().Totals()
	perStepBytes := float64(bytes) / float64(b.N)
	net := netsim.Cluster25GbE(workers)
	predicted := net.CollectiveTime(coll, 8*dim, int(perStepBytes)/workers, delta > 0)
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/step")
	b.ReportMetric(perStepBytes, "bytes/step")
	b.ReportMetric(predicted*1e6, "pred-us/step")
}

// BenchmarkExchange times the three collectives at N = 2, 4 and 8, and
// prices every wire format on the payload shapes of the step
// benchmark's rows (priced/<row>/<wire>, see benchPriced).
func BenchmarkExchange(b *testing.B) {
	const dim = 1 << 16
	for _, bc := range []struct {
		name  string
		delta float64
		coll  netsim.Collective
	}{
		{"ring-dense", 0, netsim.CollectiveRing},
		{"allgather-sparse", 0.01, netsim.CollectiveAllGather},
		{"ps-sparse", 0.01, netsim.CollectivePS},
	} {
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s-n%d", bc.name, workers), func(b *testing.B) {
				benchExchange(b, workers, dim, bc.delta, bc.coll)
			})
		}
	}
	for _, sh := range pricedShapes {
		for _, w := range []encoding.Format{encoding.FormatPairs64, encoding.FormatBitmap, encoding.FormatPairsBF16} {
			b.Run(fmt.Sprintf("priced/%s/%s", sh.name, w), func(b *testing.B) {
				benchPriced(b, sh, w)
			})
		}
	}
}

// pricedShape is the selection one step benchmark row ships: its
// dimension, density, compressor and collective, at the row's N = 2.
type pricedShape struct {
	name    string
	dim     int
	delta   float64
	comp    compress.Compressor
	profile string // the Table 1 gradient marginal the selection is drawn from
	coll    netsim.Collective
	// sparse prices the merged sparse mean (ExchangeSparse) rather than
	// Exchange into a dense aggregate, whose clear of d elements costs the
	// same on every wire: at d = 2^21 it was most of a codec cell.
	sparse bool
}

// pricedShapes mirror the step benchmark's rows that encode a payload:
// train-sidco-tcp (its MLP's d; the row trains a real model, so the
// selection borrows a Table 1 marginal), grad-sidcoe-d2m and
// grad-topk-bitmap-ps.
var pricedShapes = []pricedShape{
	{"train-sidco-tcp", 1_847_306, 0.01, core.NewE(), "resnet20-cifar10", netsim.CollectiveAllGather, true},
	{"grad-sidcoe-d2m", 1 << 21, 0.001, core.NewE(), "lstm-ptb", netsim.CollectiveAllGather, true},
	{"grad-topk-bitmap-ps", 269_467, 0.1, compress.NewTopK(), "resnet20-cifar10", netsim.CollectivePS, false},
}

// pricedLinks are the fabrics a wire format is priced on: the paper's
// 25 GbE and two slower Ethernet rates, each at Cluster25GbE's latency.
var pricedLinks = []struct {
	name string
	bps  float64
}{{"25g", 25e9}, {"10g", 10e9}, {"1g", 1e9}}

// benchPriced prices wire w on one shape: the measured codec time of a
// step (one rank's error-feedback pre-round to the wire, then the whole
// exchange through Engine: encodes, decodes, merge) plus the alpha-beta
// time of the exact bytes Instrumented counted, per link. Ranks run in
// parallel, so one rank's pre-round is on the critical path.
func benchPriced(b *testing.B, sh pricedShape, format encoding.Format) {
	const workers = 2
	wl, err := dist.WorkloadByName(sh.profile)
	if err != nil {
		b.Fatal(err)
	}
	sels := make([]*tensor.Sparse, workers)
	ins := make([]dist.ExchangeInput, workers)
	for r := range ins {
		g := wl.Grad.Generator(sh.dim, int64(r)).Next()
		if sels[r], err = compress.FreshCompress(sh.comp, g, sh.delta); err != nil {
			b.Fatal(err)
		}
		sp := &tensor.Sparse{Dim: sh.dim, Idx: sels[r].Idx, Vals: append([]float64(nil), sels[r].Vals...)}
		if err := encoding.RoundTripValues(format, sp.Vals); err != nil {
			b.Fatal(err)
		}
		ins[r] = dist.ExchangeInput{Worker: r, Dense: g, Sparse: sp}
	}
	e, err := New(Config{Workers: workers, Collective: sh.coll, Format: format})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	agg := make([]float64, sh.dim)
	var mean tensor.Sparse
	round := make([]float64, len(sels[0].Vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(round, sels[0].Vals)
		if err := encoding.RoundTripValues(format, round); err != nil {
			b.Fatal(err)
		}
		if sh.sparse {
			_, err = e.ExchangeSparse(i, ins, &mean)
		} else {
			err = e.Exchange(i, ins, agg)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	codec := b.Elapsed().Seconds() / float64(b.N)
	tp := e.Transport()
	var push, pull int
	for r := 0; r < workers; r++ {
		if sh.coll == netsim.CollectivePS {
			push += tp.LinkStats(r, workers).Bytes
			pull += tp.LinkStats(workers, r).Bytes
		} else {
			push += tp.LinkStats(r, 1-r).Bytes
		}
	}
	push /= workers * b.N
	pull /= workers * b.N
	b.ReportMetric(float64(push), "push-B")
	if sh.coll == netsim.CollectivePS {
		b.ReportMetric(float64(pull), "pull-B")
	}
	for _, l := range pricedLinks {
		net := netsim.Network{Workers: workers, BandwidthBps: l.bps, LatencySec: netsim.Cluster25GbE(workers).LatencySec}
		// Under PS CollectiveTime prices the pull at its dense argument:
		// hand it the measured pull.
		b.ReportMetric((codec+net.CollectiveTime(sh.coll, pull, push, true))*1e6, "priced-"+l.name+"-us/step")
	}
}
