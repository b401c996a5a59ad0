package fitness

import (
	"math/rand"
	"testing"

	"leonardo/internal/genome"
)

// breakdownGeneByGene is the reference evaluator: the three rules
// applied one decoded gene at a time, exactly as the paper states
// them. It was the production path for non-paper layouts before the
// word-level kernel; it survives here as the oracle BreakdownExtended
// is proved against.
func breakdownGeneByGene(e Evaluator, x genome.Extended) Breakdown {
	b := e.maxima()
	steps, legs := e.Layout.Steps, e.Layout.Legs
	nl := leftLegs(legs)

	// Rule 1 — equilibrium: per step, phase and (3+ legged) side, not
	// every leg raised.
	for s := 0; s < steps; s++ {
		for phase := 0; phase < 2; phase++ {
			raised := func(leg int) bool {
				g := x.Gene(s, leg)
				if phase == 0 {
					return g.RaiseFirst
				}
				return g.RaiseAfter
			}
			if nl >= 3 && !allRaised(raised, 0, nl) {
				b.Equilibrium++
			}
			if legs-nl >= 3 && !allRaised(raised, nl, legs) {
				b.Equilibrium++
			}
		}
	}

	// Rule 2 — symmetry: forward in one step, backward in the next
	// (cyclically).
	for p := 0; p < symmetryPairs(steps); p++ {
		next := (p + 1) % steps
		for leg := 0; leg < legs; leg++ {
			if x.Gene(p, leg).Forward != x.Gene(next, leg).Forward {
				b.Symmetry++
			}
		}
	}

	// Rule 3 — coherence: up before forward, down before backward.
	for s := 0; s < steps; s++ {
		for leg := 0; leg < legs; leg++ {
			if x.Gene(s, leg).Coherent() {
				b.Coherence++
			}
		}
	}
	return b
}

func allRaised(raised func(int) bool, lo, hi int) bool {
	for leg := lo; leg < hi; leg++ {
		if !raised(leg) {
			return false
		}
	}
	return true
}

// randomExtended fills a genome of the layout with bits set with
// probability density, so sparse and dense genomes both exercise the
// all-raised equilibrium failures.
func randomExtended(rng *rand.Rand, ly genome.Layout, density float64) genome.Extended {
	x := genome.NewExtended(ly)
	for i := 0; i < ly.Bits(); i++ {
		x.Bits.Set(i, rng.Float64() < density)
	}
	return x
}

// TestBreakdownExtendedMatchesOracle is the exactness wall of the
// word-level kernel: over random genomes of every layout with 1–12
// steps and 1–9 legs, BreakdownExtended equals the gene-by-gene
// oracle. Layouts up to 324 bits span several words, and their genes
// land on every offset, including the ones straddling bits 63/64 and
// 127/128.
func TestBreakdownExtendedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	straddles := 0
	for steps := 1; steps <= 12; steps++ {
		for legs := 1; legs <= 9; legs++ {
			ly := genome.Layout{Steps: steps, Legs: legs}
			e := Evaluator{Layout: ly, Weights: DefaultWeights}
			for gene := 0; gene < steps*legs; gene++ {
				if at := gene * genome.BitsPerLegStep; at/64 != (at+2)/64 {
					straddles++
				}
			}
			for k := 0; k < 200; k++ {
				x := randomExtended(rng, ly, []float64{0.5, 0.9, 0.1, 1}[k%4])
				got, want := e.BreakdownExtended(x), breakdownGeneByGene(e, x)
				if got != want {
					t.Fatalf("layout %+v genome %v: kernel %v, oracle %v", ly, x.Bits, got, want)
				}
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no layout put a gene across a word boundary")
	}
}

// TestBreakdownExtendedWideLayouts covers layouts wider than one
// 63-bit window per side or step (22+ legs), which no realistic robot
// has but which Layout.Validate accepts.
func TestBreakdownExtendedWideLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, ly := range []genome.Layout{{Steps: 3, Legs: 22}, {Steps: 2, Legs: 43}, {Steps: 5, Legs: 64}, {Steps: 1, Legs: 130}} {
		e := Evaluator{Layout: ly, Weights: DefaultWeights}
		for k := 0; k < 50; k++ {
			x := randomExtended(rng, ly, []float64{0.5, 1, 0.97}[k%3])
			if got, want := e.BreakdownExtended(x), breakdownGeneByGene(e, x); got != want {
				t.Fatalf("layout %+v: kernel %v, oracle %v", ly, got, want)
			}
		}
	}
}

// sevenStep is the layout of the "bigger genomes" island runs the
// daemon benchmark evolves: 7 steps of 6 legs, 126 bits in two words.
var sevenStep = genome.Layout{Steps: 7, Legs: genome.Legs}

func BenchmarkScoreExtended(b *testing.B) {
	for _, bc := range []struct {
		name string
		ly   genome.Layout
	}{{"paper", genome.PaperLayout}, {"steps7", sevenStep}} {
		b.Run(bc.name, func(b *testing.B) {
			e := Evaluator{Layout: bc.ly, Weights: DefaultWeights}
			rng := rand.New(rand.NewSource(1))
			xs := make([]genome.Extended, 256)
			for i := range xs {
				xs[i] = randomExtended(rng, bc.ly, 0.5)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += e.ScoreExtended(xs[i%len(xs)])
			}
			_ = sink
		})
	}
}
