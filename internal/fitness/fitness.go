// Package fitness implements the fitness module of Discipulus Simplex.
//
// The paper rejects measuring fitness on the physical robot (a genome
// needs ~5 s of walking to be judged) and instead defines fitness
// purely in terms of logic computations, from three high-level physical
// rules that contain no knowledge of the solution genome:
//
//  1. equilibrium — three legs raised on the same side make the robot
//     stumble and fall;
//  2. symmetry — a leg that goes forward in the first step should go
//     backward in the next, as observed in walking animals;
//  3. coherence — a leg must be up before it moves forward (the swing
//     happens in the air) and down before it moves backward (propulsion
//     needs ground contact).
//
// Each rule contributes an integer sub-score; the fitness is their
// weighted sum, so it is computable by a small combinational circuit
// and comparable with a plain magnitude comparator — no real numbers or
// divisions, exactly the constraint the paper's logic system imposes.
//
// This package is replay-critical: runs must replay bit-identically
// across processes and resumes (leolint enforces DESIGN.md §8).
//
//leo:deterministic
package fitness

import (
	"fmt"
	"math/bits"

	"leonardo/internal/genome"
)

// Weights scales the three rule sub-scores. A zero weight disables the
// rule, which is how the rule-ablation experiment (A1 in DESIGN.md) is
// expressed.
type Weights struct {
	Equilibrium int
	Symmetry    int
	Coherence   int
}

// DefaultWeights weighs the three rules equally, giving a maximum
// fitness of 26 for the paper's 36-bit genome (8 equilibrium checks +
// 6 symmetry checks + 12 coherence checks).
var DefaultWeights = Weights{Equilibrium: 1, Symmetry: 1, Coherence: 1}

// Breakdown reports the per-rule raw scores (number of satisfied
// checks) and their maxima for one genome.
type Breakdown struct {
	Equilibrium, EquilibriumMax int
	Symmetry, SymmetryMax       int
	Coherence, CoherenceMax     int
}

// String renders the breakdown as "eq 7/8 sym 6/6 coh 12/12".
func (b Breakdown) String() string {
	return fmt.Sprintf("eq %d/%d sym %d/%d coh %d/%d",
		b.Equilibrium, b.EquilibriumMax, b.Symmetry, b.SymmetryMax,
		b.Coherence, b.CoherenceMax)
}

// Evaluator scores gait genomes of a fixed layout.
type Evaluator struct {
	Layout  genome.Layout
	Weights Weights
}

// New returns the paper's evaluator: 2-step 6-leg genomes, equal rule
// weights.
func New() Evaluator {
	return Evaluator{Layout: genome.PaperLayout, Weights: DefaultWeights}
}

// Score evaluates a packed 36-bit genome. It requires the paper
// layout. This is the allocation-free packed path (precomputed lookup
// tables over the packed bits, see lut.go); ScoreExtended is the
// any-layout word kernel, and the two agree bit for bit (proved by
// property test).
//
//leo:hotpath
func (e Evaluator) Score(g genome.Genome) int {
	b := e.breakdownPacked(g)
	return e.Weights.Equilibrium*b.Equilibrium +
		e.Weights.Symmetry*b.Symmetry +
		e.Weights.Coherence*b.Coherence
}

// ScorePacked is Score under the name the GA machinery looks for when
// probing objectives for a packed fast path (gap.PackedObjective).
func (e Evaluator) ScorePacked(g genome.Genome) int { return e.Score(g) }

// Breakdown evaluates a packed 36-bit genome and reports per-rule
// detail. Like Score, it runs on the packed bits without allocating.
//
//leo:hotpath
func (e Evaluator) Breakdown(g genome.Genome) Breakdown {
	return e.breakdownPacked(g)
}

// ScoreExtended evaluates a genome of any layout, allocation-free
// like Score (see BreakdownExtended).
//
//leo:hotpath
func (e Evaluator) ScoreExtended(x genome.Extended) int {
	b := e.BreakdownExtended(x)
	return e.Weights.Equilibrium*b.Equilibrium +
		e.Weights.Symmetry*b.Symmetry +
		e.Weights.Coherence*b.Coherence
}

// Max returns the highest attainable fitness for the evaluator's
// layout and weights. The maximum is attainable: the alternating
// tripod family satisfies all checks simultaneously (proved in the
// package tests).
func (e Evaluator) Max() int {
	b := e.maxima()
	return e.Weights.Equilibrium*b.EquilibriumMax +
		e.Weights.Symmetry*b.SymmetryMax +
		e.Weights.Coherence*b.CoherenceMax
}

func (e Evaluator) maxima() Breakdown {
	steps, legs := e.Layout.Steps, e.Layout.Legs
	return Breakdown{
		EquilibriumMax: steps * 2 * sideCount(legs),
		SymmetryMax:    symmetryPairs(steps) * legs,
		CoherenceMax:   steps * legs,
	}
}

// sideCount returns how many sides have at least three legs; the
// equilibrium rule is only meaningful for a side with three or more
// legs, matching Leonardo's 3+3 arrangement.
func sideCount(legs int) int {
	n := 0
	if leftLegs(legs) >= 3 {
		n++
	}
	if legs-leftLegs(legs) >= 3 {
		n++
	}
	return n
}

// leftLegs returns how many of the layout's legs are on the left side:
// the first half (rounded up), mirroring genome leg order L1..L3 R1..R3.
func leftLegs(legs int) int { return (legs + 1) / 2 }

// symmetryPairs returns the number of adjacent-step alternation checks
// per leg. The walk is cyclic, so step s is compared with step
// (s+1) mod N; for N == 2 the two comparisons coincide and are counted
// once (the paper's 6 checks), and a single-step genome has none.
func symmetryPairs(steps int) int {
	switch {
	case steps < 2:
		return 0
	case steps == 2:
		return 1
	default:
		return steps
	}
}

// BreakdownExtended evaluates a genome of any layout with per-rule
// detail. It is the word-level kernel behind every non-paper layout:
// a step's genes are read straight from the bit string in windows of
// up to 21 genes (63 bits, which may straddle two words), and each
// rule is a mask and a popcount over the window rather than a decode
// per gene. Nothing limits the layout: a step longer than one window
// takes several.
//
//leo:hotpath
func (e Evaluator) BreakdownExtended(x genome.Extended) Breakdown {
	if x.Layout != e.Layout {
		panic(fmt.Sprintf("fitness: genome layout %+v does not match evaluator layout %+v",
			x.Layout, e.Layout))
	}
	b := e.maxima()
	steps, legs := e.Layout.Steps, e.Layout.Legs
	nl, nr := leftLegs(legs), legs-leftLegs(legs)
	stride := legs * genome.BitsPerLegStep
	// Every step pairs with the one before it for the symmetry rule,
	// cyclically: past two steps the first step pairs with the last
	// (symmetryPairs; with two steps, that pair is the one step 1
	// already counts, and one step has none).
	cyclic := steps > 2
	for s := 0; s < steps; s++ {
		at, prev := s*stride, (s+steps-1)%steps*stride
		// raised[phase][side] counts the raised legs of each side after
		// the step's first vertical move (RaiseFirst, gene bit 0, held
		// through the horizontal move) and after its final one
		// (RaiseAfter, gene bit 2).
		var raised [2][2]int
		for lo := 0; lo < legs; lo += windowGenes {
			m := min(legs-lo, windowGenes)
			off, w := lo*genome.BitsPerLegStep, m*genome.BitsPerLegStep
			v := x.Bits.Field(at+off, w)
			// The window's genes of legs below nl are on the left side.
			left := geneLow & lowBits(max(0, min(nl-lo, m))*genome.BitsPerLegStep)
			right := geneLow & lowBits(w) &^ left
			raised[0][0] += bits.OnesCount64(v & left)
			raised[0][1] += bits.OnesCount64(v & right)
			raised[1][0] += bits.OnesCount64(v >> 2 & left)
			raised[1][1] += bits.OnesCount64(v >> 2 & right)

			// Rule 2 — symmetry. A leg moving forward in one step must
			// move backward in the next: the Forward bits (gene bit 1)
			// of the two steps differ.
			if s > 0 || cyclic {
				b.Symmetry += bits.OnesCount64((v ^ x.Bits.Field(prev+off, w)) >> 1 & geneLow)
			}

			// Rule 3 — coherence. Up before forward, down before
			// backward: gene bits 0 and 1 agree.
			b.Coherence += m - bits.OnesCount64((v^v>>1)&geneLow)
		}

		// Rule 1 — equilibrium. In each phase, on each (3+ legged)
		// side, at most two legs may be raised: the check fails only
		// when the side's raised count is its size.
		for _, r := range raised {
			if nl >= 3 && r[0] < nl {
				b.Equilibrium++
			}
			if nr >= 3 && r[1] < nr {
				b.Equilibrium++
			}
		}
	}
	return b
}

// geneLow marks bit 0 of each 3-bit gene in a 63-bit window:
// bits 0, 3, ..., 60, i.e. (2^63-1)/7.
const geneLow = 0x1249249249249249

// windowGenes is the number of whole genes one 64-bit field holds.
const windowGenes = 21

// lowBits returns a mask of the low n bits (n < 64).
func lowBits(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// Func adapts the evaluator to the plain fitness-function signature
// used by the GA machinery (internal/evolve's searches), routing
// through the packed LUT fast path.
func (e Evaluator) Func() func(genome.Genome) int {
	return func(g genome.Genome) int { return e.Score(g) }
}
