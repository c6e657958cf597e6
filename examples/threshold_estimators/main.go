// Threshold estimator shoot-out: streams an evolving, heavy-tailed
// gradient sequence (with outliers) through every estimator and prints
// each one's achieved-vs-target selection ratio — a live rendition of
// the paper's Figure 1c.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/simgrad"
)

func main() {
	const (
		dim   = 500_000
		delta = 0.001
		iters = 50
	)
	estimators := []compress.Compressor{
		compress.NewTopK(),
		compress.NewDGC(3),
		compress.NewRedSync(),
		compress.NewGaussianKSGD(),
		core.NewE(),
		core.NewGammaGP(),
		core.NewGP(),
	}
	k := compress.TargetK(dim, delta)
	fmt.Printf("d=%d, delta=%g, k=%d, %d iterations of an evolving gradient stream\n\n",
		dim, delta, k, iters)
	fmt.Printf("%-12s %12s %12s %14s\n", "estimator", "mean k^/k", "worst k^/k", "|log err| avg")

	for _, est := range estimators {
		gen := simgrad.New(simgrad.Config{
			Dim:         dim,
			Family:      simgrad.FamilyDoubleGamma,
			Shape:       0.55,
			Scale:       0.01,
			ScaleDecay:  1e-3,
			SharpenRate: 1e-3,
			OutlierFrac: 1e-5, OutlierScale: 500,
			Seed: 99,
		})
		sum, worst, logErr := 0.0, 1.0, 0.0
		buf := make([]float64, dim)
		for i := 0; i < iters; i++ {
			gen.Fill(buf)
			s, err := compress.FreshCompress(est, buf, delta)
			if err != nil {
				log.Fatal(err)
			}
			r := float64(s.NNZ()) / float64(k)
			sum += r
			if math.Abs(math.Log(math.Max(r, 1e-9))) > math.Abs(math.Log(math.Max(worst, 1e-9))) {
				worst = r
			}
			logErr += math.Abs(math.Log(math.Max(r, 1e-9)))
		}
		fmt.Printf("%-12s %12.4f %12.4f %14.4f\n",
			est.Name(), sum/iters, worst, logErr/iters)
	}
	fmt.Println("\nTop-k is exact by construction; DGC tracks it via sampling; SIDCo")
	fmt.Println("matches both in O(d) while RedSync/GaussianKSGD drift off target.")
}
