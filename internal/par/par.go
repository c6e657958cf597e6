// Package par is the tiny fork-join substrate shared by the
// range-parallel passes in tensor, stats and core: a worker splitter
// that mirrors the cluster layer's chunk split, and a Do that fans a
// function out over worker indices and joins. Determinism is the
// callers' contract: every parallel pass in this codebase assigns
// workers fixed contiguous index ranges and merges results in worker
// order, so P=1 and P=n produce bit-identical outputs.
package par

import "sync"

// RangeBounds returns the half-open range [lo, hi) of worker w of p
// over d elements: lo = w*d/p, hi = (w+1)*d/p. It is the same split
// cluster.chunkBounds uses for the ring all-reduce's chunks.
func RangeBounds(d, p, w int) (lo, hi int) {
	return w * d / p, (w + 1) * d / p
}

// Do runs fn(0), fn(1), ..., fn(p-1), concurrently when p > 1, and
// returns when all calls have finished. fn(0) runs on the calling
// goroutine, so p <= 1 is exactly a direct call with no goroutine or
// synchronisation cost.
func Do(p int, fn func(worker int)) {
	if p <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}
