package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAbsPartialsTotalMatchesAbsSum holds AbsPartials.Total to absSum(v,
// nil) at every streamLength, on each path, block partials of every size
// (so the order they add in shows): with no block
// covered, with every block covered, and with covered blocks drawn at
// random — runs of four uncovered blocks and shorter ones, at any offset —
// each covered chain a producer's Σ|v| of its block (absKernel, from +0 in
// element order). A covered chain that is wrong must show: Forget then
// must sweep the blocks it names, a Reset for another length must cover
// nothing, and a stale chain left covered must change the total.
func TestAbsPartialsTotalMatchesAbsSum(t *testing.T) {
	onEachPath(func(path string) { t.Run(path, testAbsPartialsTotal) })
}

func testAbsPartialsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range streamLengths {
		v := make([]float64, n)
		scale := 1.0
		for i := range v {
			if i%sumBlock == 0 {
				scale = math.Exp(rng.NormFloat64() * 12)
			}
			v[i] = scale * rng.NormFloat64()
		}
		want := absSum(v, nil)
		nb := (n + sumBlock - 1) / sumBlock
		for _, cover := range []string{"none", "all", "random"} {
			var p AbsPartials
			p.Reset(n)
			for b := 0; b+4 <= nb; b += 4 {
				if cover == "none" || cover == "random" && rng.Intn(3) == 0 {
					continue
				}
				// Only whole blocks are ever covered: a producer covers
				// whole 4096-element blocks.
				if (b+4)*sumBlock > n {
					break
				}
				c := p.Quad(b)
				for i := range c {
					lo := (b + i) * sumBlock
					c[i] = absKernel(v[lo:lo+sumBlock], nil, 0)[0]
				}
			}
			if cover == "random" {
				// Uncover single blocks too, so that runs of one to
				// three uncovered blocks sit between covered ones.
				for b := range nb {
					if rng.Intn(5) == 0 {
						p.Forget(b*sumBlock, b*sumBlock+1)
					}
				}
			}
			what := fmt.Sprintf("n=%d cover=%s", n, cover)
			if got := p.Total(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Total %v, absSum %v", what, got, want)
			}
			if nb == 0 {
				continue
			}
			var q AbsPartials
			q.Reset(n + sumBlock)
			if got := q.Total(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Total from partials of another length %v, absSum %v", what, got, want)
			}
		}
	}
	// A covered chain is what Total adds: a wrong one shows, and Forget
	// sweeps its block again.
	n := 4 * sumBlock
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	var p AbsPartials
	p.Reset(n)
	c := p.Quad(0)
	for i := range c {
		c[i] = absKernel(v[i*sumBlock:(i+1)*sumBlock], nil, 0)[0]
	}
	c[2] += 1
	if got, want := p.Total(v), absSum(v, nil); got == want {
		t.Fatalf("a stale chain left covered: Total %v equals absSum", got)
	}
	p.Forget(2*sumBlock+5, 2*sumBlock+6)
	if s, covered := p.Chain(2); covered {
		t.Fatalf("Forget left block 2 covered (chain %v)", s)
	}
	if got, want := p.Total(v), absSum(v, nil); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after Forget: Total %v, absSum %v", got, want)
	}
}

// TestAbsPartialsReuse: a Reset to a length no longer than any before
// allocates nothing, and Total allocates nothing.
func TestAbsPartialsReuse(t *testing.T) {
	var p AbsPartials
	v := make([]float64, 9*sumBlock+3)
	p.Reset(len(v))
	if n := testing.AllocsPerRun(20, func() {
		p.Reset(len(v))
		p.Quad(4)
		p.Total(v)
		p.Reset(0)
	}); n != 0 {
		t.Fatalf("Reset/Quad/Total allocate %v objects/op", n)
	}
}
