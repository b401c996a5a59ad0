package fitness

import (
	"math/rand"
	"testing"
	"testing/quick"

	"leonardo/internal/genome"
)

// tripod builds the canonical alternating tripod genome: tripod A =
// {L1, L3, R2} swings (up, forward, down) in step 1 and propels in
// step 2; tripod B = {L2, R1, R3} does the opposite.
func tripod() genome.Genome {
	swing := genome.LegGene{RaiseFirst: true, Forward: true, RaiseAfter: false}
	stance := genome.LegGene{RaiseFirst: false, Forward: false, RaiseAfter: false}
	inA := map[genome.Leg]bool{genome.L1: true, genome.L3: true, genome.R2: true}
	var steps [genome.StepsPerGenome][genome.Legs]genome.LegGene
	for _, l := range genome.AllLegs() {
		if inA[l] {
			steps[0][l] = swing
			steps[1][l] = stance
		} else {
			steps[0][l] = stance
			steps[1][l] = swing
		}
	}
	return genome.New(steps)
}

func TestMaxValue(t *testing.T) {
	e := New()
	if got := e.Max(); got != 26 {
		t.Fatalf("Max = %d, want 26 (8 equilibrium + 6 symmetry + 12 coherence)", got)
	}
}

func TestTripodAchievesMax(t *testing.T) {
	e := New()
	g := tripod()
	b := e.Breakdown(g)
	if b.Equilibrium != b.EquilibriumMax || b.Symmetry != b.SymmetryMax || b.Coherence != b.CoherenceMax {
		t.Fatalf("tripod breakdown %v not maximal", b)
	}
	if e.Score(g) != e.Max() {
		t.Fatalf("tripod score %d != max %d", e.Score(g), e.Max())
	}
}

func TestAllZeroGenome(t *testing.T) {
	// All-zero genome: every leg always down, moving backward, in both
	// steps. Coherent (down+backward) and balanced (nothing raised),
	// but completely asymmetric.
	e := New()
	b := e.Breakdown(0)
	if b.Coherence != 12 {
		t.Errorf("all-zero coherence = %d, want 12", b.Coherence)
	}
	if b.Equilibrium != 8 {
		t.Errorf("all-zero equilibrium = %d, want 8", b.Equilibrium)
	}
	if b.Symmetry != 0 {
		t.Errorf("all-zero symmetry = %d, want 0", b.Symmetry)
	}
	if e.Score(0) != 20 {
		t.Errorf("all-zero score = %d, want 20", e.Score(0))
	}
}

func TestAllOnesGenome(t *testing.T) {
	// All-ones: every leg always up, moving forward. Coherent
	// (up+forward), never symmetric, always three-up on both sides in
	// both phases of both steps.
	e := New()
	b := e.Breakdown(genome.Mask)
	if b.Coherence != 12 || b.Symmetry != 0 || b.Equilibrium != 0 {
		t.Errorf("all-ones breakdown = %v", b)
	}
}

func TestEquilibriumDetectsThreeUpOneSide(t *testing.T) {
	e := New()
	// Raise all three left legs in step 1's first phase only.
	g := genome.Genome(0)
	for _, l := range []genome.Leg{genome.L1, genome.L2, genome.L3} {
		g = g.WithGene(0, l, genome.LegGene{RaiseFirst: true})
	}
	b := e.Breakdown(g)
	if b.Equilibrium != 7 {
		t.Fatalf("equilibrium = %d, want 7 (one of 8 checks violated)", b.Equilibrium)
	}
	// Two raised legs on a side is fine.
	g2 := genome.Genome(0).
		WithGene(0, genome.L1, genome.LegGene{RaiseFirst: true}).
		WithGene(0, genome.L2, genome.LegGene{RaiseFirst: true})
	if got := e.Breakdown(g2).Equilibrium; got != 8 {
		t.Fatalf("two-up equilibrium = %d, want 8", got)
	}
}

func TestEquilibriumPhaseC(t *testing.T) {
	e := New()
	// Raise all three right legs in step 2's final phase only.
	g := genome.Genome(0)
	for _, l := range []genome.Leg{genome.R1, genome.R2, genome.R3} {
		g = g.WithGene(1, l, genome.LegGene{RaiseAfter: true})
	}
	if got := e.Breakdown(g).Equilibrium; got != 7 {
		t.Fatalf("equilibrium = %d, want 7", got)
	}
}

func TestSymmetryCounting(t *testing.T) {
	e := New()
	// Make exactly k legs alternate.
	for k := 0; k <= genome.Legs; k++ {
		g := genome.Genome(0)
		for i := 0; i < k; i++ {
			g = g.WithGene(0, genome.Leg(i), genome.LegGene{Forward: true})
		}
		if got := e.Breakdown(g).Symmetry; got != k {
			t.Fatalf("k=%d: symmetry = %d", k, got)
		}
	}
}

func TestCoherenceCounting(t *testing.T) {
	e := New()
	// Start from all-zero (fully coherent) and break coherence one
	// leg-step at a time by setting Forward without RaiseFirst.
	g := genome.Genome(0)
	broken := 0
	for s := 0; s < genome.StepsPerGenome; s++ {
		for _, l := range genome.AllLegs() {
			g = g.WithGene(s, l, genome.LegGene{Forward: true})
			broken++
			if got := e.Breakdown(g).Coherence; got != 12-broken {
				t.Fatalf("after breaking %d: coherence = %d", broken, got)
			}
		}
	}
}

func TestScoreIsWeightedSum(t *testing.T) {
	f := func(raw uint64, we, ws, wc uint8) bool {
		g := genome.Genome(raw) & genome.Mask
		e := Evaluator{Layout: genome.PaperLayout,
			Weights: Weights{int(we % 5), int(ws % 5), int(wc % 5)}}
		b := e.Breakdown(g)
		want := b.Equilibrium*e.Weights.Equilibrium +
			b.Symmetry*e.Weights.Symmetry +
			b.Coherence*e.Weights.Coherence
		return e.Score(g) == want && e.Score(g) <= e.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroWeightDisablesRule(t *testing.T) {
	e := Evaluator{Layout: genome.PaperLayout, Weights: Weights{1, 0, 1}}
	// Two genomes differing only in symmetry must score equally.
	g1 := genome.Genome(0)
	g2 := genome.Genome(0)
	for _, l := range genome.AllLegs() {
		g2 = g2.WithGene(0, l, genome.LegGene{Forward: true, RaiseFirst: true})
	}
	b1, b2 := e.BreakdownExtended(genome.FromGenome(g1)), e.BreakdownExtended(genome.FromGenome(g2))
	if b1.Symmetry == b2.Symmetry {
		t.Fatal("test construction broken: genomes have same symmetry")
	}
	// Equilibrium also changes here (three left legs raised)... pick a
	// cleaner pair: flip symmetry by changing step-2 direction of one
	// leg that stays down.
	ga := genome.Genome(0)
	gb := ga.WithGene(1, genome.L1, genome.LegGene{Forward: true, RaiseFirst: true})
	ea := Evaluator{Layout: genome.PaperLayout, Weights: Weights{0, 1, 0}}
	if ea.Score(ga) == ea.Score(gb) {
		t.Fatal("symmetry-only evaluator should distinguish ga/gb")
	}
	eb := Evaluator{Layout: genome.PaperLayout, Weights: Weights{0, 0, 1}}
	if eb.Score(ga) != eb.Score(gb) {
		t.Fatal("coherence-only evaluator should not distinguish ga/gb")
	}
}

// TestMaxFitnessFamilyCount verifies the exact analytic structure of
// the max-fitness set. With equal weights, a genome is maximal iff:
// coherence fixes RaiseFirst = Forward everywhere (12 constraints),
// symmetry fixes Forward(step2) = NOT Forward(step1) per leg, and
// equilibrium forbids per-side all-raised patterns in both phases.
// Free bits: 6 step-1 directions + 12 RaiseAfter bits, constrained to
// direction patterns per side not in {000, 111} and RaiseAfter per
// side per step not 111. Count = (6*6) * 7^4 = 86436.
func TestMaxFitnessFamilyCount(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 2^18 enumeration")
	}
	e := New()
	maxScore := e.Max()
	count := 0
	for free := 0; free < 1<<18; free++ {
		dir := free & 0x3F // step-1 Forward per leg
		ra1 := free >> 6 & 0x3F
		ra2 := free >> 12 & 0x3F
		var steps [genome.StepsPerGenome][genome.Legs]genome.LegGene
		for l := 0; l < genome.Legs; l++ {
			f1 := dir>>uint(l)&1 != 0
			steps[0][l] = genome.LegGene{RaiseFirst: f1, Forward: f1, RaiseAfter: ra1>>uint(l)&1 != 0}
			steps[1][l] = genome.LegGene{RaiseFirst: !f1, Forward: !f1, RaiseAfter: ra2>>uint(l)&1 != 0}
		}
		if e.Score(genome.New(steps)) == maxScore {
			count++
		}
	}
	if count != 86436 {
		t.Fatalf("max-fitness family size = %d, want 86436", count)
	}
}

func TestRandomGenomesBelowMax(t *testing.T) {
	// A uniform random genome is maximal with probability ~1.26e-6;
	// 10k draws should essentially never hit it, and never exceed it.
	e := New()
	rng := rand.New(rand.NewSource(2))
	hits := 0
	for i := 0; i < 10000; i++ {
		s := e.Score(genome.Genome(rng.Uint64()) & genome.Mask)
		if s > e.Max() {
			t.Fatalf("score %d exceeds max %d", s, e.Max())
		}
		if s == e.Max() {
			hits++
		}
	}
	if hits > 2 {
		t.Fatalf("%d max hits in 10k random draws; fitness far too easy", hits)
	}
}

func TestExtendedLayouts(t *testing.T) {
	// 4-step layout: maxima scale with steps; symmetry is cyclic.
	ly := genome.Layout{Steps: 4, Legs: 6}
	e := Evaluator{Layout: ly, Weights: DefaultWeights}
	wantMax := 4*2*2 + 4*6 + 4*6 // 16 equilibrium + 24 symmetry + 24 coherence
	if got := e.Max(); got != wantMax {
		t.Fatalf("4-step Max = %d, want %d", got, wantMax)
	}
	// An alternating 4-step tripod (A,B,A,B) must be maximal.
	x := genome.NewExtended(ly)
	inA := map[int]bool{0: true, 2: true, 4: true} // L1, L3, R2
	for s := 0; s < 4; s++ {
		for l := 0; l < 6; l++ {
			swingNow := inA[l] == (s%2 == 0)
			x.SetGene(s, l, genome.LegGene{RaiseFirst: swingNow, Forward: swingNow})
		}
	}
	if got := e.ScoreExtended(x); got != wantMax {
		t.Fatalf("alternating 4-step tripod score = %d, want %d (breakdown %v)",
			got, wantMax, e.BreakdownExtended(x))
	}
}

func TestSingleStepLayoutHasNoSymmetry(t *testing.T) {
	ly := genome.Layout{Steps: 1, Legs: 6}
	e := Evaluator{Layout: ly, Weights: DefaultWeights}
	if got := e.Max(); got != 1*2*2+0+6 {
		t.Fatalf("1-step Max = %d", got)
	}
}

func TestFourLegLayoutSkipsEquilibrium(t *testing.T) {
	// With two legs per side the equilibrium rule has nothing to
	// check.
	ly := genome.Layout{Steps: 2, Legs: 4}
	e := Evaluator{Layout: ly, Weights: DefaultWeights}
	if got := e.maxima().EquilibriumMax; got != 0 {
		t.Fatalf("4-leg EquilibriumMax = %d, want 0", got)
	}
}

func TestLayoutMismatchPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("layout mismatch should panic")
		}
	}()
	e.ScoreExtended(genome.NewExtended(genome.Layout{Steps: 4, Legs: 6}))
}

func TestFuncAdapter(t *testing.T) {
	e := New()
	f := e.Func()
	g := tripod()
	if f(g) != e.Score(g) {
		t.Fatal("Func adapter disagrees with Score")
	}
}

func TestBreakdownString(t *testing.T) {
	e := New()
	s := e.Breakdown(tripod()).String()
	if s != "eq 8/8 sym 6/6 coh 12/12" {
		t.Fatalf("Breakdown.String() = %q", s)
	}
}

// TestScoreMatchesScoreExtended is the packed-fast-path equivalence
// property: for any packed genome and any weight vector, the LUT path
// (Score/Breakdown) agrees exactly with the general-layout path
// (ScoreExtended/BreakdownExtended on the unpacked genome).
func TestScoreMatchesScoreExtended(t *testing.T) {
	f := func(raw uint64, we, ws, wc uint8) bool {
		g := genome.Genome(raw) & genome.Mask
		e := Evaluator{Layout: genome.PaperLayout,
			Weights: Weights{int(we % 7), int(ws % 7), int(wc % 7)}}
		x := genome.FromGenome(g)
		return e.Score(g) == e.ScoreExtended(x) &&
			e.Breakdown(g) == e.BreakdownExtended(x) &&
			e.ScorePacked(g) == e.Score(g)
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Exhaustive corner sweep: every single-gene genome plus the edges.
	e := New()
	for bits := uint64(0); bits < 8; bits++ {
		for pos := 0; pos < genome.Bits/genome.BitsPerLegStep; pos++ {
			g := genome.Genome(bits << uint(pos*genome.BitsPerLegStep))
			if e.Score(g) != e.ScoreExtended(genome.FromGenome(g)) {
				t.Fatalf("gene %d at slot %d: packed %d != extended %d",
					bits, pos, e.Score(g), e.ScoreExtended(genome.FromGenome(g)))
			}
		}
	}
	for _, g := range []genome.Genome{0, genome.Mask, tripod()} {
		if e.Breakdown(g) != e.BreakdownExtended(genome.FromGenome(g)) {
			t.Fatalf("genome %v: packed breakdown diverges", g)
		}
	}
}

// TestAllocsHotpath pins the zero-allocation guarantee of both
// kernels: scoring a packed genome, and scoring a 7-step genome
// through the word-level ScoreExtended, must never touch the heap. The
// name matches the CI alloc-budget step's -run TestAllocs filter.
func TestAllocsHotpath(t *testing.T) {
	e := New()
	gs := []genome.Genome{0, genome.Mask, tripod(), 0x123456789}
	sink := 0
	n := testing.AllocsPerRun(100, func() {
		for _, g := range gs {
			sink += e.Score(g)
			b := e.Breakdown(g)
			sink += b.Equilibrium
		}
	})
	if n != 0 {
		t.Fatalf("Score/Breakdown allocate %v times per run, want 0", n)
	}
	e7 := Evaluator{Layout: sevenStep, Weights: DefaultWeights}
	x := randomExtended(rand.New(rand.NewSource(7)), sevenStep, 0.5)
	n = testing.AllocsPerRun(100, func() {
		sink += e7.ScoreExtended(x)
	})
	if n != 0 {
		t.Fatalf("7-step ScoreExtended allocates %v times per run, want 0", n)
	}
	_ = sink
}

// TestScorePackedRejectsOtherLayouts pins the fast path to the paper
// layout: other layouts must use ScoreExtended.
func TestScorePackedRejectsOtherLayouts(t *testing.T) {
	e := Evaluator{Layout: genome.Layout{Steps: 4, Legs: 6}, Weights: DefaultWeights}
	defer func() {
		if recover() == nil {
			t.Fatal("Score on a non-paper layout should panic")
		}
	}()
	e.Score(0)
}

func BenchmarkScore(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	gs := make([]genome.Genome, 256)
	for i := range gs {
		gs[i] = genome.Genome(rng.Uint64()) & genome.Mask
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Score(gs[i%len(gs)])
	}
}
