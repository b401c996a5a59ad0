package leonardo_test

import (
	"context"
	"fmt"

	"leonardo"
)

// The canonical gait: inspect the tripod and its rule fitness.
func ExampleFitness() {
	g := leonardo.Tripod()
	fmt.Println(leonardo.Fitness(g), "/", leonardo.MaxFitness())
	fmt.Println(leonardo.FitnessBreakdown(g))
	// Output:
	// 26 / 26
	// eq 8/8 sym 6/6 coh 12/12
}

// Walking the tripod for five gait cycles in the kinematic simulator.
func ExampleWalk() {
	m := leonardo.Walk(leonardo.Tripod(), 5)
	fmt.Printf("%.0f mm, %d stumbles\n", m.DistanceMM, m.Stumbles)
	// Output:
	// 360 mm, 0 stumbles
}

// Decoding a genome into its per-leg movement plan.
func ExampleDescribe() {
	fmt.Println(leonardo.Describe(leonardo.Tripod()))
	// Output:
	// step 1:  L1 U>D  L2 D<D  L3 U>D  R1 D<D  R2 U>D  R3 D<D
	// step 2:  L1 D<D  L2 U>D  L3 D<D  R1 U>D  R2 D<D  R3 U>D
	// fitness 26/26 (eq 8/8 sym 6/6 coh 12/12)
}

// Evolving a gait with the paper's exact parameters. The run is
// deterministic for a fixed seed.
func ExampleEvolve() {
	res, err := leonardo.Evolve(leonardo.PaperParams(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", res.Converged)
	fmt.Println("fitness:", res.BestFitness, "/", res.MaxFitness)
	// Output:
	// converged: true
	// fitness: 26 / 26
}

// Growing a quality-diversity gait repertoire, checkpointing it
// mid-run, resuming, and querying the finished archive for a
// behaviour. The interrupted run finishes bit-identically to an
// uninterrupted one, so the lookup below is deterministic.
func ExampleRepertoireRun() {
	p := leonardo.RepertoireParams{
		Headings:       8,
		Strides:        4,
		Cycles:         2,
		Batch:          32,
		MaxEvaluations: 3200,
		Seed:           3,
	}

	// Step a fresh run halfway, snapshot it, and throw the run away —
	// the snapshot alone carries the full state.
	run, err := leonardo.NewRepertoireRun(p)
	if err != nil {
		panic(err)
	}
	for run.Batches() < 50 {
		if err := run.Step(); err != nil {
			panic(err)
		}
	}
	checkpoint := run.Snapshot()

	// Resume from bytes and drive the archive to its budget. The
	// snapshot names its own kind, so ResumeAny returns a
	// *RepertoireRun.
	runner, err := leonardo.ResumeAny(checkpoint)
	if err != nil {
		panic(err)
	}
	resumed := runner.(*leonardo.RepertoireRun)
	res, err := resumed.RunCtx(context.Background(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("best:", res.BestFitness, "/", res.MaxFitness)

	// O(1) behaviour query: the fittest gait that walks straight ahead
	// (heading 0) at about 30 mm per cycle.
	if elite, ok := resumed.Lookup(0, 30); ok {
		m := leonardo.Walk(elite.Genome, 2)
		fmt.Printf("lookup fitness %d, walked %.0f mm\n", elite.Fitness, m.DistanceMM)
	}
	// Output:
	// best: 26 / 26
	// lookup fitness 26, walked 60 mm
}

// The gait diagram of one tripod cycle: '#' stance, '.' swing.
func ExampleGaitDiagram() {
	fmt.Print(leonardo.GaitDiagram(leonardo.Tripod(), 1))
	// Output:
	// L1   ..####
	// L2   ###..#
	// L3   ..####
	// R1   ###..#
	// R2   ..####
	// R3   ###..#
}
