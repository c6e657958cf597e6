package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/netsim"
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
}
