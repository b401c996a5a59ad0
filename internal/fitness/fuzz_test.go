package fitness

import (
	"testing"

	"leonardo/internal/gait"
	"leonardo/internal/genome"
)

// FuzzLUTFitness pins the packed LUT fast path (Score/Breakdown over
// precomputed tables, lut.go) to the general-layout reference evaluator
// (ScoreExtended/BreakdownExtended) on arbitrary 36-bit genomes. The GA
// hot loop only ever sees the fast path, so any divergence here would
// silently change evolution trajectories.
func FuzzLUTFitness(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(gait.Tripod()))
	f.Add(uint64(0x555555555))
	f.Fuzz(func(t *testing.T, raw uint64) {
		g := genome.Genome(raw) & genome.Mask
		e := New()
		x := genome.FromGenome(g)
		fast, slow := e.Score(g), e.ScoreExtended(x)
		if fast != slow {
			t.Fatalf("%v: LUT score %d, reference score %d", g, fast, slow)
		}
		fb, sb := e.Breakdown(g), e.BreakdownExtended(x)
		if fb != sb {
			t.Fatalf("%v: LUT breakdown %v, reference breakdown %v", g, fb, sb)
		}
		if sum := fb.Equilibrium + fb.Symmetry + fb.Coherence; sum != fast {
			t.Fatalf("%v: breakdown sums to %d, score is %d", g, sum, fast)
		}
		if fast < 0 || fast > e.Max() {
			t.Fatalf("%v: score %d outside [0,%d]", g, fast, e.Max())
		}
	})
}

// FuzzBreakdownExtended pins the word-level kernel to the gene-by-gene
// oracle on fuzz-drawn layouts (1–16 steps, 1–24 legs: up to 1,152
// bits, so genes and windows straddle words at every offset) and
// fuzz-drawn bits, repeated cyclically to fill the genome.
func FuzzBreakdownExtended(f *testing.F) {
	f.Add(uint8(1), uint8(5), []byte{0xff})
	f.Add(uint8(6), uint8(5), []byte{0x5a, 0x0f, 0xf0})
	f.Add(uint8(11), uint8(8), []byte{0})
	f.Add(uint8(2), uint8(21), []byte{0x92, 0x24, 0x49})
	f.Fuzz(func(t *testing.T, steps, legs uint8, data []byte) {
		ly := genome.Layout{Steps: 1 + int(steps)%16, Legs: 1 + int(legs)%24}
		x := genome.NewExtended(ly)
		for i := 0; len(data) > 0 && i < ly.Bits(); i++ {
			x.Bits.Set(i, data[i/8%len(data)]>>(i%8)&1 != 0)
		}
		e := Evaluator{Layout: ly, Weights: DefaultWeights}
		if got, want := e.BreakdownExtended(x), breakdownGeneByGene(e, x); got != want {
			t.Fatalf("layout %+v genome %v: kernel %v, oracle %v", ly, x.Bits, got, want)
		}
	})
}
