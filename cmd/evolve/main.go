// Command evolve runs the Discipulus Simplex genetic algorithm
// processor (behavioural model) and reports the evolved gait.
//
// Usage:
//
//	evolve [-seed N] [-pop N] [-sel P] [-xov P] [-mut N] [-maxgen N]
//	       [-islands N] [-migrate-every N] [-topology ring|none] [-workers N]
//	       [-lanepack]
//	       [-repertoire] [-grid HxS] [-batch N] [-evals N]
//	       [-progress N] [-json] [-curve]
//	       [-checkpoint F] [-checkpoint-at N] [-resume F]
//	       [-cpuprofile F] [-memprofile F]
//
// The run is resumable: -checkpoint writes a versioned binary snapshot
// of the complete run state (population, RNG, counters, history) when
// the command exits — including on SIGINT/SIGTERM, which cancel the run
// cleanly at the next generation boundary — and -resume continues the
// exact random trajectory from such a file, finishing with results
// bit-identical to an uninterrupted run. -checkpoint-at N stops after
// generation N (pause); a later -resume invocation completes the run.
//
// -islands N (N > 1) runs an archipelago: N demes evolve concurrently
// and exchange champions over the -topology every -migrate-every
// generations. Island runs checkpoint and resume like single runs —
// -resume sniffs the snapshot kind, so a file written in island mode
// resumes in island mode regardless of flags. In island mode -progress
// and -checkpoint-at count epochs (migration intervals), and the replay
// is bit-identical for any -workers value.
//
// -lanepack runs the archipelago on the lane-packed gate-level backend:
// every deme is one SWAR lane of a single simulated GAP circuit, so an
// epoch costs one circuit pass per clock cycle for all demes together.
// -islands chooses the deme count (1 or unset means all 64 lanes); the
// island-mode flags, checkpointing, and resume semantics are otherwise
// identical. The population evolves in circuit RAM, so -lanepack implies
// the paper's three-rule fitness and epoch-granular telemetry.
//
// -repertoire grows a MAP-Elites quality-diversity archive instead of a
// single champion: a -grid HxS lattice over (final heading, per-cycle
// stride displacement), each cell keeping the fittest gait with that
// behaviour, -batch candidates per step up to an -evals budget. The
// archive checkpoints and resumes like the other kinds — a snapshot
// file written in repertoire mode resumes in repertoire mode — and
// replays bit-identically for any -workers value. -progress and
// -checkpoint-at count batches.
//
// -resume refuses snapshots of the kinds the command does not report:
// gate-level circuit runs and cluster shards (leonardod's kinds).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"leonardo"
	"leonardo/internal/engine"
	"leonardo/internal/gait"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/island"
	"leonardo/internal/prof"
	"leonardo/internal/robot"
	"leonardo/internal/stats"
)

// main delegates to run so deferred cleanup (profile writers) executes
// before os.Exit.
func main() { os.Exit(run()) }

// output is the -json document of a gap or archipelago run: the run
// result plus, with -progress, the per-generation trace.
type output struct {
	Converged   bool           `json:"converged"`
	Cancelled   bool           `json:"cancelled,omitempty"`
	Generations int            `json:"generations"`
	BestFitness int            `json:"best_fitness"`
	MaxFitness  int            `json:"max_fitness"`
	Draws       uint64         `json:"draws"`
	Islands     int            `json:"islands,omitempty"`
	Migrations  int            `json:"migrations,omitempty"`
	BestDeme    int            `json:"best_deme,omitempty"`
	Genome      string         `json:"genome,omitempty"`
	OnChipNs    int64          `json:"on_chip_ns"`
	Checkpoint  string         `json:"checkpoint,omitempty"`
	Trace       []engine.Event `json:"trace,omitempty"`
}

// repertoireOutput is the -json document of a -repertoire run: archive
// coverage and work counters plus every elite.
type repertoireOutput struct {
	Cancelled   bool                       `json:"cancelled,omitempty"`
	Filled      int                        `json:"filled"`
	Cells       int                        `json:"cells"`
	BestFitness int                        `json:"best_fitness"`
	MaxFitness  int                        `json:"max_fitness"`
	Batches     int                        `json:"batches"`
	Evaluations int                        `json:"evaluations"`
	Draws       uint64                     `json:"draws"`
	Checkpoint  string                     `json:"checkpoint,omitempty"`
	Elites      []leonardo.RepertoireElite `json:"elites,omitempty"`
	Trace       []engine.Event             `json:"trace,omitempty"`
}

func run() int {
	seed := flag.Uint64("seed", 1, "random seed for the cellular-automaton generator")
	pop := flag.Int("pop", 32, "population size (even)")
	sel := flag.Float64("sel", 0.8, "tournament selection threshold")
	xov := flag.Float64("xov", 0.7, "crossover threshold")
	mut := flag.Int("mut", 15, "single-bit mutations per generation")
	maxGen := flag.Int("maxgen", gap.DefaultMaxGenerations, "generation cap")
	steps := flag.Int("steps", 2, "walk steps per genome (2 = paper; more = future-work layout)")
	islands := flag.Int("islands", 1, "number of concurrent demes (>1 enables island mode)")
	migrateEvery := flag.Int("migrate-every", island.DefaultMigrateEvery, "generations between migration barriers (island mode)")
	topology := flag.String("topology", string(island.Ring), `island migration topology: "ring" or "none"`)
	workers := flag.Int("workers", 0, "worker goroutines for island mode (0 = GOMAXPROCS; never affects results)")
	lanepack := flag.Bool("lanepack", false, "run the archipelago lane-packed: one gate-level deme per SWAR lane of a shared simulator (-islands <= 1 means all 64 lanes)")
	repertoireMode := flag.Bool("repertoire", false, "grow a MAP-Elites gait repertoire over (heading, stride) cells instead of a single champion")
	grid := flag.String("grid", "", `repertoire grid as "HxS" heading sectors x stride bands (empty = 16x8)`)
	batch := flag.Int("batch", 0, "repertoire candidates evaluated per batch (0 = default)")
	evals := flag.Int("evals", 0, "repertoire evaluation budget (0 = default)")
	curve := flag.Bool("curve", false, "plot the fitness-vs-generation curve")
	progress := flag.Int("progress", 0, "report telemetry every N generations")
	jsonOut := flag.Bool("json", false, "emit the result (and -progress trace) as JSON")
	checkpoint := flag.String("checkpoint", "", "write a resumable snapshot to this file on exit")
	checkpointAt := flag.Int("checkpoint-at", 0, "pause after generation N (with -checkpoint: write the snapshot there)")
	resume := flag.String("resume", "", "resume from a snapshot file (parameter flags are ignored)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	defer stop()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// The first signal cancels the run at the next generation boundary so
	// the final checkpoint and -json summary still happen; releasing the
	// handler here restores default delivery, so a second signal kills
	// the process instead of being swallowed during that wind-down.
	context.AfterFunc(ctx, cancel)

	base := gap.PaperParams(*seed)
	base.PopulationSize = *pop
	base.SelectionThreshold = *sel
	base.CrossoverThreshold = *xov
	base.MutationsPerGeneration = *mut
	base.MaxGenerations = *maxGen
	base.Layout = genome.Layout{Steps: *steps, Legs: genome.Legs}
	base.RecordHistory = *curve
	ip := leonardo.IslandParams{
		Demes:        *islands,
		MigrateEvery: *migrateEvery,
		Topology:     island.Topology(*topology),
		Workers:      *workers,
		Base:         base,
	}

	// A resumed run takes its kind and parameters from the snapshot, not
	// the flags; a fresh one is the mode the flags select.
	var r leonardo.Runner
	switch {
	case *resume != "":
		data, err := os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
		if r, err = leonardo.ResumeAny(data); err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
		// Workers is pure scheduling, so it is the one flag a resume
		// honours.
		if w, ok := r.(interface{ SetWorkers(int) }); ok {
			w.SetWorkers(*workers)
		}
	case *repertoireMode:
		rp := leonardo.RepertoireParams{
			Batch:          *batch,
			MaxEvaluations: *evals,
			Seed:           *seed,
			Workers:        *workers,
		}
		if *grid != "" {
			if rp.Headings, rp.Strides, err = leonardo.ParseGrid(*grid); err != nil {
				fmt.Fprintf(os.Stderr, "evolve: -grid %q is not of the form HxS (e.g. 16x8)\n", *grid)
				return 1
			}
		}
		r, err = leonardo.NewRepertoireRun(rp)
	case *lanepack:
		if ip.Demes <= 1 {
			ip.Demes = leonardo.DefaultLanePackDemes
		}
		r, err = leonardo.NewLanePackRun(ip)
	case *islands > 1:
		r, err = leonardo.NewIslandRun(ip)
	default:
		r, err = leonardo.NewRun(base)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	v, err := viewOf(r, *curve)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evolve:", err)
		return 1
	}
	if *resume != "" {
		fmt.Fprintf(os.Stderr, "evolve: resumed %q at %s\n", *resume, v.position())
	}

	// Observation: a stride-sampled recorder feeds the JSON trace, a
	// printing observer feeds the terminal; both only exist when asked
	// for, so the default run keeps the engine's nil-observer fast path.
	var observers []engine.Observer
	var rec *engine.Recorder
	if *progress > 0 {
		rec = &engine.Recorder{Every: *progress}
		observers = append(observers, rec)
		if !*jsonOut {
			every := *progress
			observers = append(observers, engine.FuncObserver(func(ev engine.Event) {
				if n, _ := v.steps(); n%every == 0 {
					fmt.Fprintln(os.Stderr, v.progress(ev))
				}
			}))
		}
	}
	var obs engine.Observer
	if len(observers) > 0 {
		obs = engine.MultiObserver(observers)
	}

	limit := -1
	if *checkpointAt > 0 {
		n, _ := v.steps()
		limit = max(*checkpointAt-n, 0)
	}
	runErr := engine.Steps(ctx, r, obs, limit)
	cancelled := errors.Is(runErr, context.Canceled)
	if runErr != nil && !cancelled {
		fmt.Fprintln(os.Stderr, "evolve:", runErr)
		return 1
	}

	if *checkpoint != "" {
		if err := os.WriteFile(*checkpoint, r.Snapshot(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
		n, unit := v.steps()
		fmt.Fprintf(os.Stderr, "evolve: snapshot at %s %d written to %q\n", unit, n, *checkpoint)
	}

	if *jsonOut {
		var trace []engine.Event
		if rec != nil {
			trace = rec.Events()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v.document(cancelled, *checkpoint, trace)); err != nil {
			fmt.Fprintln(os.Stderr, "evolve:", err)
			return 1
		}
	} else {
		v.print()
	}
	if cancelled {
		return 130
	}
	return 0
}

// view is the per-kind part of the command: how far a run has come,
// its -progress line, and its final report.
type view interface {
	// steps returns the completed steps in the unit -progress and
	// -checkpoint-at count, and that unit's name.
	steps() (int, string)
	// position describes the resume point for the "resumed" notice.
	position() string
	progress(ev engine.Event) string
	document(cancelled bool, checkpoint string, trace []engine.Event) any
	print()
}

// viewOf picks the report for a run's kind. The command reports the
// gap, archipelago, lane-packed, and repertoire kinds; any other
// snapshot it is asked to resume is refused.
func viewOf(r leonardo.Runner, curve bool) (view, error) {
	switch r := r.(type) {
	case *leonardo.Run:
		return gapView{r, curve}, nil
	case *leonardo.IslandRun:
		return islandView{r}, nil
	case *leonardo.LanePackRun:
		return islandView{r}, nil
	case *leonardo.RepertoireRun:
		return repertoireView{r}, nil
	}
	return nil, fmt.Errorf("cannot run a %q snapshot (want a gap, island, lanepack, or repertoire run)", r.Kind())
}

// timing is the paper's clock-cycle model at a run's GA parameters.
func timing(p leonardo.Params) gap.Timing {
	t := gap.PaperTiming()
	t.Bits = p.Layout.Bits()
	t.Population = p.PopulationSize
	t.Mutations = p.MutationsPerGeneration
	t.CrossoverRate = p.CrossoverThreshold
	return t
}

// gapView reports a single behavioural GAP run; -progress and
// -checkpoint-at count generations.
type gapView struct {
	run   *leonardo.Run
	curve bool
}

func (v gapView) steps() (int, string) { return v.run.Generation(), "generation" }

func (v gapView) position() string { return fmt.Sprintf("generation %d", v.run.Generation()) }

func (v gapView) progress(ev engine.Event) string {
	return fmt.Sprintf("gen %6d  best %2d/%2d  mean %5.1f  draws %d",
		ev.Generation, ev.BestEver, v.run.Result().MaxFitness, ev.MeanFitness, ev.Draws)
}

func (v gapView) document(cancelled bool, checkpoint string, trace []engine.Event) any {
	res, p := v.run.Result(), v.run.Params()
	out := output{
		Converged:   res.Converged,
		Cancelled:   cancelled,
		Generations: res.Generations,
		BestFitness: res.BestFitness,
		MaxFitness:  res.MaxFitness,
		Draws:       res.Draws,
		OnChipNs:    timing(p).RunDuration(res.Generations).Nanoseconds(),
		Checkpoint:  checkpoint,
		Trace:       trace,
	}
	if p.Layout == genome.PaperLayout {
		out.Genome = res.Best.Packed().String()
	}
	return out
}

func (v gapView) print() {
	res, p := v.run.Result(), v.run.Params()
	t := timing(p)
	fmt.Printf("converged: %v after %d generations (best fitness %d/%d)\n",
		res.Converged, res.Generations, res.BestFitness, res.MaxFitness)
	fmt.Printf("on-chip time at 1 MHz: %v (%s)\n", t.RunDuration(res.Generations), t)
	fmt.Printf("random draws consumed: %d\n\n", res.Draws)

	if p.Layout == genome.PaperLayout {
		champ := res.Best.Packed()
		fmt.Println("champion genome:")
		fmt.Println(" ", champ)
		fmt.Println(champ.Describe())
		fmt.Println()
		fmt.Println("gait diagram (2 cycles):")
		fmt.Print(gait.Diagram(res.Best, 2))
	} else {
		fmt.Println("gait diagram (1 cycle):")
		fmt.Print(gait.Diagram(res.Best, 1))
	}
	m := robot.Walk(res.Best, robot.Trial{Cycles: 5})
	fmt.Println("\nsimulated walk (5 cycles):", m)

	if v.curve && len(res.History) > 0 {
		var s stats.Series
		s.Name = "best fitness"
		for _, h := range res.History {
			s.Add(float64(h.Generation), float64(h.BestFitness))
		}
		fmt.Println()
		fmt.Print(s.Render(12, 72))
	}
}

// islandView reports an archipelago, behavioural (*leonardo.IslandRun)
// or lane-packed (*leonardo.LanePackRun); -progress and -checkpoint-at
// count epochs, one epoch being -migrate-every generations per deme.
type islandView struct {
	run interface {
		Epoch() int
		Params() leonardo.IslandParams
		Result() leonardo.IslandResult
	}
}

func (v islandView) steps() (int, string) { return v.run.Epoch(), "epoch" }

func (v islandView) position() string {
	return fmt.Sprintf("epoch %d (%d demes)", v.run.Epoch(), v.run.Params().Demes)
}

func (v islandView) progress(ev engine.Event) string {
	res := v.run.Result()
	return fmt.Sprintf("epoch %5d  gen %6d  best %2d/%2d  mean %5.1f  migrants %d",
		v.run.Epoch(), ev.Generation, ev.BestEver, res.MaxFitness, ev.MeanFitness, res.Migrations)
}

func (v islandView) document(cancelled bool, checkpoint string, trace []engine.Event) any {
	res, p := v.run.Result(), v.run.Params()
	out := output{
		Converged:   res.Converged,
		Cancelled:   cancelled,
		Generations: res.Generations,
		BestFitness: res.BestFitness,
		MaxFitness:  res.MaxFitness,
		Draws:       res.Draws,
		Islands:     p.Demes,
		Migrations:  res.Migrations,
		BestDeme:    res.BestDeme,
		OnChipNs:    timing(p.Base).RunDuration(res.Generations).Nanoseconds(),
		Checkpoint:  checkpoint,
		Trace:       trace,
	}
	if p.Base.Layout == genome.PaperLayout {
		out.Genome = res.Best.Packed().String()
	}
	return out
}

func (v islandView) print() {
	res, p := v.run.Result(), v.run.Params()
	t := timing(p.Base)
	fmt.Printf("converged: %v after %d generations on %d islands (best fitness %d/%d, deme %d, %d migrants)\n",
		res.Converged, res.Generations, p.Demes, res.BestFitness, res.MaxFitness, res.BestDeme, res.Migrations)
	fmt.Printf("on-chip time per island at 1 MHz: %v (%s)\n", t.RunDuration(res.Generations), t)
	fmt.Printf("random draws consumed: %d\n\n", res.Draws)

	if p.Base.Layout == genome.PaperLayout {
		champ := res.Best.Packed()
		fmt.Println("champion genome:")
		fmt.Println(" ", champ)
		fmt.Println(champ.Describe())
		fmt.Println()
	}
	fmt.Println("gait diagram (2 cycles):")
	fmt.Print(gait.Diagram(res.Best, 2))
	m := robot.Walk(res.Best, robot.Trial{Cycles: 5})
	fmt.Println("\nsimulated walk (5 cycles):", m)
}

// repertoireView reports a MAP-Elites archive: coverage plus the
// elites; -progress and -checkpoint-at count batches.
type repertoireView struct{ run *leonardo.RepertoireRun }

func (v repertoireView) steps() (int, string) { return v.run.Batches(), "batch" }

func (v repertoireView) position() string {
	filled, total := v.run.Coverage()
	return fmt.Sprintf("batch %d (%d/%d cells)", v.run.Batches(), filled, total)
}

func (v repertoireView) progress(ev engine.Event) string {
	filled, total := v.run.Coverage()
	return fmt.Sprintf("batch %5d  evals %7d  cells %4d/%4d  best %2d  mean %5.1f",
		ev.Generation, ev.Evaluations, filled, total, ev.BestEver, ev.MeanFitness)
}

func (v repertoireView) document(cancelled bool, checkpoint string, trace []engine.Event) any {
	res := v.run.Result()
	return repertoireOutput{
		Cancelled:   cancelled,
		Filled:      res.Filled,
		Cells:       res.Cells,
		BestFitness: res.BestFitness,
		MaxFitness:  res.MaxFitness,
		Batches:     res.Batches,
		Evaluations: res.Evaluations,
		Draws:       res.Draws,
		Checkpoint:  checkpoint,
		Elites:      v.run.Elites(),
		Trace:       trace,
	}
}

func (v repertoireView) print() {
	res := v.run.Result()
	fmt.Printf("repertoire: %d/%d cells after %d evaluations in %d batches (best fitness %d/%d)\n",
		res.Filled, res.Cells, res.Evaluations, res.Batches, res.BestFitness, res.MaxFitness)
	fmt.Printf("random draws consumed: %d\n\n", res.Draws)

	fmt.Println("elites (heading rad, stride mm/cycle, fitness):")
	for _, el := range v.run.Elites() {
		fmt.Printf("  %+6.3f  %7.2f  %2d  %s\n", el.HeadingRad, el.StrideMM, el.Fitness, el.Genome)
	}
	if res.Filled > 0 {
		fmt.Println("\nbest elite gait diagram (2 cycles):")
		fmt.Print(gait.Diagram(genome.FromGenome(res.Best.Genome), 2))
		m := robot.WalkGenome(res.Best.Genome, robot.Trial{Cycles: 5})
		fmt.Println("\nsimulated walk (5 cycles):", m)
	}
}
