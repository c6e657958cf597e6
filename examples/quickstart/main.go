// Quickstart: compress one gradient vector with SIDCo and compare the
// estimated threshold against the exact Top-k oracle.
package main

import (
	"fmt"
	"log"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/simgrad"
	"repro/internal/tensor"
)

func main() {
	// A synthetic 1M-element gradient with the heavy-tailed, compressible
	// statistics of real DNN training (Property 2 of the paper).
	gen := simgrad.New(simgrad.Config{
		Dim:    1_000_000,
		Family: simgrad.FamilyDoubleGamma,
		Shape:  0.6,
		Scale:  0.01,
		Seed:   42,
	})
	g := gen.Next()

	const delta = 0.001 // keep the top 0.1%
	k := compress.TargetK(len(g), delta)

	// SIDCo-E: multi-stage double-exponential threshold estimation.
	sidco := core.NewE()
	sparse, err := compress.FreshCompress(sidco, g, delta)
	if err != nil {
		log.Fatal(err)
	}

	oracle := tensor.TopKThreshold(g, k)
	sel := sidco.LastSelection()
	fmt.Printf("target k:            %d (delta=%g)\n", k, delta)
	fmt.Printf("SIDCo selected:      %d elements (k-hat/k = %.3f)\n",
		sparse.NNZ(), float64(sparse.NNZ())/float64(k))
	fmt.Printf("SIDCo threshold:     %.6g\n", sel.Threshold)
	fmt.Printf("oracle threshold:    %.6g\n", oracle)
	fmt.Printf("stages used:         %d\n", sel.Stages)
	fmt.Printf("estimate selected:   %d (band correction: %v)\n", sel.Estimated, sel.Correction != compress.CorrectionNone)

	// The selection error relative to the best possible k-sparse vector.
	idx, _ := tensor.TopKSelect(g, k)
	best := tensor.SparsificationError(g, idx)
	got := tensor.SparsificationError(g, sparse.Idx)
	fmt.Printf("sparsification error: %.6g (Top-k oracle: %.6g)\n", got, best)
}
