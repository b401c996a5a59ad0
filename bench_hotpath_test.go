package leonardo

// Hot-path microbenchmarks for the two performance-critical kernels:
// rule-fitness scoring (runs once per individual per generation in
// every GA variant) and the gate-level simulator (runs once per clock
// cycle per circuit instance). BENCH_hotpath.json records the
// before/after numbers for the packed-LUT fitness fast path and the
// 64-lane bit-parallel simulator.

import (
	"context"
	"testing"

	"leonardo/internal/engine"
	"leonardo/internal/fitness"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// benchGenomes is a fixed mixed bag of packed genomes so the scoring
// benchmarks exercise varied rule outcomes, not one branch pattern.
func benchGenomes() [256]genome.Genome {
	var gs [256]genome.Genome
	x := uint64(0x9E3779B97F4A7C15)
	for i := range gs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		gs[i] = genome.Genome(x) & genome.Mask
	}
	return gs
}

// BenchmarkFitnessScore measures Evaluator.Score on the packed paper
// layout — the GAP's innermost loop.
func BenchmarkFitnessScore(b *testing.B) {
	e := fitness.New()
	gs := benchGenomes()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.Score(gs[i%len(gs)])
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFitnessScoreViaExtended measures the any-layout path on
// paper genomes: unpack to Extended, then the word-level ScoreExtended
// that every non-paper layout runs.
func BenchmarkFitnessScoreViaExtended(b *testing.B) {
	e := fitness.New()
	gs := benchGenomes()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.ScoreExtended(genome.FromGenome(gs[i%len(gs)]))
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkGAPGeneration measures one full behavioural GAP generation
// at the paper's parameters (selection, crossover, mutation, and 32
// fitness evaluations).
func BenchmarkGAPGeneration(b *testing.B) {
	p := gap.PaperParams(12345)
	p.MaxGenerations = 1 << 30
	g, err := gap.New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generation()
	}
}

// benchStepper drives generations through the engine loop without ever
// reporting Done, exactly mirroring BenchmarkGAPGeneration's unbounded
// direct loop (the GAP itself would stop at convergence).
type benchStepper struct{ g *gap.GAP }

func (s benchStepper) Step() error         { s.g.Generation(); return nil }
func (s benchStepper) Done() bool          { return false }
func (s benchStepper) Event() engine.Event { return engine.Event{} }

// BenchmarkGAPGenerationEngine is BenchmarkGAPGeneration driven through
// the shared run engine with a nil observer — the difference between
// the two is the engine's per-generation overhead (one context poll and
// one Done check), which must stay under 5% of the direct loop.
func BenchmarkGAPGenerationEngine(b *testing.B) {
	p := gap.PaperParams(12345)
	p.MaxGenerations = 1 << 30
	g, err := gap.New(p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	if err := engine.Steps(ctx, benchStepper{g}, nil, b.N); err != nil {
		b.Fatal(err)
	}
}

// gateBenchCycles keeps one benchmark iteration around a millisecond.
const gateBenchCycles = 200

// BenchmarkGateSimScalar64 runs 64 independent gate-level GAP
// instances the pre-lane way: 64 separate simulators stepped
// sequentially. The reported gate-evals/sec metric is directly
// comparable with BenchmarkGateSimLanePacked.
func BenchmarkGateSimScalar64(b *testing.B) {
	core, err := gapcirc.Build(gap.PaperParams(1))
	if err != nil {
		b.Fatal(err)
	}
	const instances = 64
	sims := make([]*logic.Sim, instances)
	for i := range sims {
		s, err := core.Circuit.Compile()
		if err != nil {
			b.Fatal(err)
		}
		sims[i] = s
	}
	nodes := float64(core.Circuit.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sims {
			s.StepN(gateBenchCycles)
		}
	}
	b.StopTimer()
	reportGateRate(b, nodes*gateBenchCycles*instances)
}

// BenchmarkGateSimLanePacked runs the same 64 instances as one
// lane-packed simulator: each node evaluates all 64 lanes in a single
// bitwise word operation per clock.
func BenchmarkGateSimLanePacked(b *testing.B) {
	core, err := gapcirc.Build(gap.PaperParams(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Circuit.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for lane := 0; lane < logic.Lanes; lane++ {
		core.SeedLane(s, lane, uint64(lane+1))
	}
	nodes := float64(core.Circuit.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepN(gateBenchCycles)
	}
	b.StopTimer()
	reportGateRate(b, nodes*gateBenchCycles*logic.Lanes)
}

func reportGateRate(b *testing.B, evalsPerIter float64) {
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(evalsPerIter*float64(b.N)/secs, "gate-evals/sec")
	}
}
