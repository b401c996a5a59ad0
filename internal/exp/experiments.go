package exp

import (
	"context"
	"fmt"
	"time"

	"leonardo/internal/engine"
	"leonardo/internal/evolve"
	"leonardo/internal/fitness"
	"leonardo/internal/fpga"
	"leonardo/internal/gait"
	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/genome"
	"leonardo/internal/robot"
	"leonardo/internal/stats"
)

// Config scales experiment effort. Defaults are chosen so the full
// suite finishes in minutes; the benches use smaller run counts.
type Config struct {
	// Runs is the number of seeded evolution runs per data point.
	Runs int
	// BaseSeed offsets all seeds for independence between experiments.
	BaseSeed uint64
	// Workers bounds the number of concurrent seeded runs per sweep
	// (<= 0 means runtime.GOMAXPROCS(0)).
	Workers int
}

// DefaultConfig is the full-report effort level.
func DefaultConfig() Config { return Config{Runs: 200, BaseSeed: 1} }

// QuickConfig is a fast smoke-level configuration.
func QuickConfig() Config { return Config{Runs: 20, BaseSeed: 1} }

func (c Config) runs() int {
	if c.Runs <= 0 {
		return 20
	}
	return c.Runs
}

// runPaper executes one behavioural GAP run at the paper's parameters,
// stopping early (with the context's error) if ctx ends mid-run.
func runPaper(ctx context.Context, seed uint64) (gap.Result, error) {
	p := gap.PaperParams(seed)
	g, err := gap.New(p)
	if err != nil {
		return gap.Result{}, err
	}
	return g.RunCtx(ctx, nil)
}

// generationSample collects generations-to-convergence over n seeds,
// running the seeds in parallel.
func generationSample(ctx context.Context, cfg Config, n int) ([]float64, error) {
	results, err := engine.Map(ctx, cfg.Workers, n, func(i int) (gap.Result, error) {
		return runPaper(ctx, cfg.BaseSeed+uint64(i))
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for _, r := range results {
		if r.Converged {
			out = append(out, float64(r.Generations))
		}
	}
	return out, nil
}

// E1Parameters reproduces the §3.3 parameter list and verifies the
// realized operator rates against the configured thresholds.
func E1Parameters(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "GAP parameters (paper §3.3) and realized operator rates",
		Header: []string{"parameter", "paper", "ours", "realized"},
	}
	p := gap.PaperParams(cfg.BaseSeed)
	p.MaxGenerations = 300
	p.Objective = unreachableObjective{}
	g, err := gap.New(p)
	if err != nil {
		return Table{}, err
	}
	if _, err := g.RunCtx(ctx, nil); err != nil {
		return Table{}, err
	}
	ops := g.Ops()
	keep := float64(ops.KeptBetter) / float64(ops.Tournaments)
	xov := float64(ops.Crossed) / float64(ops.Pairs)
	mutPerGen := float64(ops.Mutations) / 300

	t.AddRow("population size", "32", fmt.Sprint(p.PopulationSize), "-")
	t.AddRow("genome size (bits)", "36", fmt.Sprint(p.Layout.Bits()), "-")
	t.AddRow("selection threshold", "0.8", fmt.Sprintf("%.2f", p.SelectionThreshold),
		fmt.Sprintf("%.3f (kept fitter)", keep))
	t.AddRow("crossover threshold", "0.7", fmt.Sprintf("%.2f", p.CrossoverThreshold),
		fmt.Sprintf("%.3f (pairs crossed)", xov))
	t.AddRow("mutations/generation", "15 (of 1152 bits)", fmt.Sprint(p.MutationsPerGeneration),
		fmt.Sprintf("%.1f", mutPerGen))
	t.AddRow("clock frequency", "1 MHz", "1 MHz (cycle model)", "-")
	t.Note("thresholds are realized as 8-bit comparators: 0.8 -> 205/256 = %.4f, 0.7 -> 179/256 = %.4f",
		205.0/256, 179.0/256)
	return t, nil
}

type unreachableObjective struct{}

func (unreachableObjective) ScoreExtended(x genome.Extended) int {
	return fitness.New().ScoreExtended(x)
}
func (unreachableObjective) Max() int { return fitness.New().Max() + 1 }

// E2Generations reproduces "To evolve the maximum fitness it needs an
// average of about 2000 generations".
func E2Generations(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Generations to reach maximum fitness",
		Header: []string{"quantity", "paper", "measured"},
	}
	sample, err := generationSample(ctx, cfg, cfg.runs())
	if err != nil {
		return Table{}, err
	}
	s := stats.Summarize(sample)
	t.AddRow("runs converged", "-", fmt.Sprintf("%d/%d", s.N, cfg.runs()))
	t.AddRow("mean generations", "~2000", fmt.Sprintf("%.0f (95%% CI [%.0f, %.0f])", s.Mean, s.CI95Lo, s.CI95Hi))
	t.AddRow("median generations", "-", fmt.Sprintf("%.0f", s.Median))
	t.AddRow("p10 / p90", "-", fmt.Sprintf("%.0f / %.0f", s.P10, s.P90))
	t.AddRow("min / max", "-", fmt.Sprintf("%.0f / %.0f", s.Min, s.Max))
	t.Note("our mean is well below the paper's ~2000: the paper's exact rule weighting is unpublished; " +
		"with our equal-weight scoring the max-fitness family has 86436 members (1.3e-6 of the space) " +
		"and the GAP finds one in O(10^2) generations. The qualitative claim (O(10^2..10^3) generations, " +
		"far below exhaustive search) holds; see E3.")
	return t, nil
}

// E3Time reproduces "the average time needed is only about 10 minutes"
// versus "about 19 hours" for exhaustive search at 1 MHz.
func E3Time(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "Evolution time at 1 MHz vs exhaustive search",
		Header: []string{"quantity", "paper", "measured/modelled"},
	}
	sample, err := generationSample(ctx, cfg, cfg.runs())
	if err != nil {
		return Table{}, err
	}
	s := stats.Summarize(sample)
	timing := gap.PaperTiming()
	meanGens := int(s.Mean + 0.5)
	gaTime := timing.RunDuration(meanGens)
	exh := gap.ExhaustiveDuration(genome.Bits)

	t.AddRow("cycles/generation", fmt.Sprintf("~%d (implied)", gap.PaperCyclesPerGeneration()),
		fmt.Sprintf("%d (gate-level measurement)", timing.CyclesPerGeneration()))
	t.AddRow("mean generations", "~2000", fmt.Sprint(meanGens))
	t.AddRow("GA time @1MHz", "~10 min", fmtDuration(gaTime))
	t.AddRow("exhaustive 2^36 @1MHz", "~19 h", fmtDuration(exh))
	t.AddRow("speedup", "~114x", fmt.Sprintf("%.0fx", timing.Speedup(meanGens, genome.Bits)))
	paperStyle := time.Duration(uint64(meanGens)*gap.PaperCyclesPerGeneration()) * time.Second / gap.ClockHz
	t.AddRow("GA time at paper's 300k cyc/gen", "~10 min",
		fmtDuration(paperStyle))
	t.Note("our word-parallel datapath needs ~%d cycles/generation where the paper's arithmetic implies ~300k; "+
		"the winner and the orders-of-magnitude gap to exhaustive search are preserved under either cycle model.",
		timing.CyclesPerGeneration())
	return t, nil
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1f h", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1f min", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	default:
		return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond))
	}
}

// E4Resources reproduces "The complete system ... uses 96 percent of
// the available CLBs, i.e. 1244 CLBs".
func E4Resources(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "XC4036EX resource usage of the complete system",
		Header: []string{"variant", "LUTs", "FFs", "RAM bits", "CLBs", "utilization", "fits"},
	}
	for _, v := range []struct {
		name string
		opts gapcirc.BuildOpts
	}{
		{"CLB-RAM population storage", gapcirc.BuildOpts{}},
		{"register-file population storage", gapcirc.BuildOpts{RegisterFile: true}},
	} {
		sys, err := gapcirc.BuildSystem(gap.PaperParams(cfg.BaseSeed), v.opts, 0)
		if err != nil {
			return Table{}, err
		}
		r := fpga.Map(sys.Core.Circuit, fpga.XC4036EX)
		t.AddRow(v.name, r.LUTs, r.FFs, r.RAMBits, r.TotalCLBs,
			fmt.Sprintf("%.0f%%", 100*r.Utilization()), r.Fits)
	}
	t.AddRow("paper (synthesized VHDL)", "-", "-", "-", 1244, "96%", true)
	t.Note("the paper's figure sits inside the bracket formed by our idealized CLB-RAM mapping " +
		"(lower bound: perfect packing, free routing) and the register-file variant (upper bound); " +
		"the qualitative claim — the whole evolvable system fits one XC4036EX-class device — is reproduced.")
	return t, nil
}

// E5WalkQuality reproduces "the walking behavior found with the
// maximum fitness respecting all these rules is nonetheless good":
// evolved champions must actually walk in the kinematic simulator.
func E5WalkQuality(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "Walk quality of evolved maximum-fitness gaits (5 cycles, kinematic simulator)",
		Header: []string{"gait", "distance (mm)", "speed (mm/s)", "stumbles", "slip (mm)", "margin (mm)"},
	}
	trial := robot.Trial{Cycles: 5}
	tm := robot.WalkGenome(gait.Tripod(), trial)
	t.AddRow("tripod (best known)", fmt.Sprintf("%.0f", tm.DistanceMM),
		fmt.Sprintf("%.1f", tm.SpeedMMPerSec()), tm.Stumbles,
		fmt.Sprintf("%.0f", tm.SlipMM), fmt.Sprintf("%.1f", tm.MeanMargin))

	n := min(cfg.runs(), 50)
	type outcome struct {
		ok bool
		m  robot.Metrics
	}
	outs, err := engine.Map(ctx, cfg.Workers, n, func(i int) (outcome, error) {
		r, err := runPaper(ctx, cfg.BaseSeed+1000+uint64(i))
		if err != nil {
			return outcome{}, err
		}
		if !r.Converged {
			return outcome{}, nil
		}
		return outcome{ok: true, m: robot.Walk(r.Best, trial)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	var dist, falls, margins []float64
	forward := 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		dist = append(dist, o.m.DistanceMM)
		falls = append(falls, float64(o.m.Stumbles))
		margins = append(margins, o.m.MeanMargin)
		if o.m.DistanceMM > 0 {
			forward++
		}
	}
	ds, fs, ms := stats.Summarize(dist), stats.Summarize(falls), stats.Summarize(margins)
	t.AddRow(fmt.Sprintf("evolved champions (n=%d)", ds.N),
		fmt.Sprintf("%.0f mean (min %.0f, max %.0f)", ds.Mean, ds.Min, ds.Max),
		"-", fmt.Sprintf("%.2f mean", fs.Mean), "-",
		fmt.Sprintf("%.1f mean", ms.Mean))
	t.Note("%d/%d champions walk forward; all satisfy the three rules exactly. "+
		"Rule fitness admits slower-than-tripod gaits (the paper: maximum fitness 'does not necessarily "+
		"correspond to the best walk known ... [but] is nonetheless good').", forward, ds.N)
	t.Note("stumbles are stability-margin violations in our quasi-static simulator: the paper's " +
		"equilibrium rule only forbids three raised legs on the SAME side, so 2+2 raised postures pass the " +
		"rule yet leave a 2-leg support; the body then settles onto its raised feet (15 mm clearance) and " +
		"keeps walking at StumbleEfficiency. The tripod-family subset of the max-fitness set is stumble-free.")
	return t, nil
}

// F3ClosedLoop exercises the Fig. 3 architecture end to end: as
// evolution proceeds, the best individual handed to the walking
// controller walks further.
func F3ClosedLoop(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "F3",
		Title:  "Closed loop (Fig. 3): walking quality of the best individual vs generation",
		Header: []string{"generation", "best fitness", "distance (mm, 5 cycles)", "stumbles"},
	}
	p := gap.PaperParams(cfg.BaseSeed + 77)
	p.MaxGenerations = 100000
	g, err := gap.New(p)
	if err != nil {
		return Table{}, err
	}
	checkpoints := []int{0, 5, 10, 20, 50, 100, 200, 400, 800}
	for _, cp := range checkpoints {
		if err := engine.Steps(ctx, g, nil, cp-g.GenerationNumber()); err != nil {
			return Table{}, err
		}
		best, fit := g.Best()
		m := robot.Walk(best, robot.Trial{Cycles: 5})
		t.AddRow(g.GenerationNumber(), fmt.Sprintf("%d/%d", fit, fitness.New().Max()),
			fmt.Sprintf("%.0f", m.DistanceMM), m.Stumbles)
		if g.Converged() {
			break
		}
	}
	t.Note("the best individual is handed to the configurable walking controller after each checkpoint, " +
		"as the GAP does on chip (Fig. 3).")
	return t, nil
}

// F4Controller reproduces the Fig. 4 walking-controller breakdown:
// the micro-movement sequence and the PWM widths of the 12 channels.
func F4Controller(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "F4",
		Title:  "Walking controller (Fig. 4): tripod gait phase table and servo pulses",
		Header: []string{"phase", "step", "move", "legs up", "pulse range (us)"},
	}
	ctl := controllerTrace()
	for _, row := range ctl {
		t.AddRow(row[0], row[1], row[2], row[3], row[4])
	}
	t.Note("12 servo channels (2 per leg); PWM frame 20 ms, pulse 1.0-2.0 ms at the 1 MHz clock.")
	return t, nil
}

func controllerTrace() [][]string {
	x := genome.FromGenome(gait.Tripod())
	ctlr := newTraceController(x)
	var out [][]string
	for phase := 0; phase < 6; phase++ {
		step, move, ups, lo, hi := ctlr(phase)
		out = append(out, []string{
			fmt.Sprint(phase), fmt.Sprint(step + 1), move, ups,
			fmt.Sprintf("%d-%d", lo, hi),
		})
	}
	return out
}

// A1RuleAblation evolves with subsets of the three rules and walks the
// champions: which rules are load-bearing for actual walking.
func A1RuleAblation(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "A1",
		Title:  "Rule ablation: evolve with rule subsets, walk the champions",
		Header: []string{"rules", "max fit", "mean gens", "mean distance (mm)", "mean stumbles", "forward"},
	}
	n := min(cfg.runs(), 30)
	cases := []struct {
		name string
		w    fitness.Weights
	}{
		{"R1+R2+R3 (paper)", fitness.Weights{Equilibrium: 1, Symmetry: 1, Coherence: 1}},
		{"R1 equilibrium only", fitness.Weights{Equilibrium: 1}},
		{"R2 symmetry only", fitness.Weights{Symmetry: 1}},
		{"R3 coherence only", fitness.Weights{Coherence: 1}},
		{"R2+R3 (no equilibrium)", fitness.Weights{Symmetry: 1, Coherence: 1}},
		{"R1+R3 (no symmetry)", fitness.Weights{Equilibrium: 1, Coherence: 1}},
		{"R1+R2 (no coherence)", fitness.Weights{Equilibrium: 1, Symmetry: 1}},
	}
	for _, cs := range cases {
		ev := fitness.Evaluator{Layout: genome.PaperLayout, Weights: cs.w}
		type outcome struct {
			ok   bool
			gens float64
			m    robot.Metrics
		}
		outs, err := engine.Map(ctx, cfg.Workers, n, func(i int) (outcome, error) {
			p := gap.PaperParams(cfg.BaseSeed + 2000 + uint64(i))
			p.Objective = ev
			g, err := gap.New(p)
			if err != nil {
				return outcome{}, err
			}
			r, err := g.RunCtx(ctx, nil)
			if err != nil {
				return outcome{}, err
			}
			if !r.Converged {
				return outcome{}, nil
			}
			return outcome{ok: true, gens: float64(r.Generations),
				m: robot.Walk(r.Best, robot.Trial{Cycles: 5})}, nil
		})
		if err != nil {
			return Table{}, err
		}
		var gens, dist, falls []float64
		forward := 0
		for _, o := range outs {
			if !o.ok {
				continue
			}
			gens = append(gens, o.gens)
			dist = append(dist, o.m.DistanceMM)
			falls = append(falls, float64(o.m.Stumbles))
			if o.m.DistanceMM > 0 {
				forward++
			}
		}
		gs, ds, fs := stats.Summarize(gens), stats.Summarize(dist), stats.Summarize(falls)
		t.AddRow(cs.name, ev.Max(), fmt.Sprintf("%.0f", gs.Mean),
			fmt.Sprintf("%.0f", ds.Mean), fmt.Sprintf("%.2f", fs.Mean),
			fmt.Sprintf("%d/%d", forward, ds.N))
	}
	t.Note("all three rules together are what make the evolved champions walk; single rules converge " +
		"quickly to gaits that go nowhere or fall.")
	return t, nil
}

// A2Baselines compares the hardware-constrained GAP against a textbook
// software GA, random search, a hill climber, and a budgeted
// exhaustive scan.
func A2Baselines(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "A2",
		Title:  "Search baselines under an equal evaluation budget",
		Header: []string{"method", "success", "mean evals to hit", "notes"},
	}
	n := min(cfg.runs(), 30)
	const budget = 50000
	e := fitness.New()
	target := e.Max()
	f := e.Func()

	// All methods run their seeds in parallel.
	type hit struct {
		ok    bool
		evals float64
	}
	collect := func(hits []hit) (int, []float64) {
		count := 0
		var es []float64
		for _, h := range hits {
			if h.ok {
				count++
				es = append(es, h.evals)
			}
		}
		return count, es
	}

	gapRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (hit, error) {
		p := gap.PaperParams(cfg.BaseSeed + 3000 + uint64(i))
		p.MaxGenerations = (budget - 32) / 32
		g, err := gap.New(p)
		if err != nil {
			return hit{}, err
		}
		r, err := g.RunCtx(ctx, nil)
		if err != nil {
			return hit{}, err
		}
		return hit{ok: r.Converged, evals: float64(g.Ops().Evaluations)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	gapHits, gapEvals := collect(gapRuns)
	t.AddRow("GAP (hardware operators)", rate(gapHits, n), meanOf(gapEvals), "tournament+1pt+15 flips, no elitism")

	swRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (hit, error) {
		c := evolve.DefaultConfig(int64(cfg.BaseSeed) + 4000 + int64(i))
		c.MaxEvaluations = budget
		r, err := evolve.RunCtx(ctx, f, target, c, nil)
		if err != nil {
			return hit{}, err
		}
		return hit{ok: r.Converged, evals: float64(r.Evaluations)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	swHits, swEvals := collect(swRuns)
	t.AddRow("software GA (elitism, per-bit mutation)", rate(swHits, n), meanOf(swEvals), "textbook generational GA")

	rsRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (hit, error) {
		r := evolve.RandomSearch(f, target, budget, int64(cfg.BaseSeed)+5000+int64(i))
		return hit{ok: r.Converged, evals: float64(r.Evaluations)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	hcRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (hit, error) {
		r := evolve.HillClimber(f, target, budget, int64(cfg.BaseSeed)+6000+int64(i))
		return hit{ok: r.Converged, evals: float64(r.Evaluations)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	saRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (hit, error) {
		r := evolve.SimulatedAnnealing(f, target, budget,
			evolve.DefaultAnnealConfig(int64(cfg.BaseSeed)+6500+int64(i)))
		return hit{ok: r.Converged, evals: float64(r.Evaluations)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	rsHits, rsEvals := collect(rsRuns)
	hcHits, hcEvals := collect(hcRuns)
	saHits, saEvals := collect(saRuns)
	t.AddRow("random search", rate(rsHits, n), meanOf(rsEvals), "uniform draws")
	t.AddRow("hill climber (restarts)", rate(hcHits, n), meanOf(hcEvals), "first-improvement bit flips")
	t.AddRow("simulated annealing", rate(saHits, n), meanOf(saEvals), "Metropolis bit flips, geometric cooling")

	ex := evolve.ExhaustiveSearch(f, target, budget)
	exNote := "did not hit in budget"
	if ex.Converged {
		exNote = fmt.Sprintf("hit at eval %d", ex.Evaluations)
	}
	t.AddRow("exhaustive scan (budgeted)", rate(boolToInt(ex.Converged), 1), "-", exNote)
	t.Note("budget %d evaluations per run, %d runs per method; full exhaustive search needs 2^36 ~ 6.9e10.", budget, n)
	return t, nil
}

// A3ParamSweep sweeps each GAP parameter around the paper's setting.
func A3ParamSweep(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "A3",
		Title:  "Parameter sweeps around the paper's operating point (mean generations to max fitness)",
		Header: []string{"parameter", "value", "converged", "mean gens", "mean @paper point"},
	}
	n := min(cfg.runs(), 25)
	baseCfg := cfg
	baseCfg.Runs = n
	baseCfg.BaseSeed = cfg.BaseSeed + 7000
	baseSample, err := generationSample(ctx, baseCfg, n)
	if err != nil {
		return Table{}, err
	}
	base := stats.Summarize(baseSample)
	baseStr := fmt.Sprintf("%.0f", base.Mean)

	sweep := func(name string, value string, mod func(*gap.Params)) error {
		results, err := engine.Map(ctx, cfg.Workers, n, func(i int) (gap.Result, error) {
			p := gap.PaperParams(cfg.BaseSeed + 8000 + uint64(i))
			p.MaxGenerations = 20000 // stagnating settings stop here
			mod(&p)
			g, err := gap.New(p)
			if err != nil {
				return gap.Result{}, err
			}
			return g.RunCtx(ctx, nil)
		})
		if err != nil {
			return err
		}
		var sample []float64
		conv := 0
		for _, r := range results {
			if r.Converged {
				conv++
				sample = append(sample, float64(r.Generations))
			}
		}
		s := stats.Summarize(sample)
		t.AddRow(name, value, fmt.Sprintf("%d/%d", conv, n), fmt.Sprintf("%.0f", s.Mean), baseStr)
		return nil
	}
	for _, v := range []float64{0.5, 0.7, 0.9, 1.0} {
		vv := v
		if err := sweep("selection threshold", fmt.Sprintf("%.1f", v), func(p *gap.Params) { p.SelectionThreshold = vv }); err != nil {
			return Table{}, err
		}
	}
	for _, v := range []float64{0.0, 0.3, 1.0} {
		vv := v
		if err := sweep("crossover threshold", fmt.Sprintf("%.1f", v), func(p *gap.Params) { p.CrossoverThreshold = vv }); err != nil {
			return Table{}, err
		}
	}
	for _, v := range []int{0, 5, 30, 60} {
		vv := v
		if err := sweep("mutations/generation", fmt.Sprint(v), func(p *gap.Params) { p.MutationsPerGeneration = vv }); err != nil {
			return Table{}, err
		}
	}
	for _, v := range []int{8, 16, 64} {
		vv := v
		if err := sweep("population size", fmt.Sprint(v), func(p *gap.Params) { p.PopulationSize = vv }); err != nil {
			return Table{}, err
		}
	}
	return t, nil
}

// F5Pipeline reproduces the Fig. 5 GAP breakdown claims: the
// selection/crossover pipeline "decreases computation time by a factor
// of about two" for that stage.
func F5Pipeline(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "F5",
		Title:  "GAP pipeline (Fig. 5): cycle accounting",
		Header: []string{"arrangement", "cycles/generation", "sel+xov stage", "note"},
	}
	seq := gap.PaperTiming()
	pipe := seq
	pipe.Pipelined = true
	t.AddRow("sequential (as gapcirc FSM)", seq.CyclesPerGeneration(), "-", "measured ground truth")
	t.AddRow("pipelined (paper's arrangement)", pipe.CyclesPerGeneration(), "-",
		fmt.Sprintf("saves %d cycles/gen", seq.CyclesPerGeneration()-pipe.CyclesPerGeneration()))

	// Measure the real circuit.
	core, err := gapcirc.Build(gap.PaperParams(cfg.BaseSeed))
	if err != nil {
		return Table{}, err
	}
	sim, err := core.Circuit.Compile()
	if err != nil {
		return Table{}, err
	}
	if _, err := core.RunGenerations(sim, 1, 0); err != nil {
		return Table{}, err
	}
	start := sim.Cycles()
	if _, err := core.RunGenerations(sim, 11, 0); err != nil {
		return Table{}, err
	}
	t.AddRow("gate-level measurement", fmt.Sprintf("%.0f", float64(sim.Cycles()-start)/10), "-",
		"10-generation average on the simulated FPGA")

	// The same measurement over a whole seed sweep at once: the 64-lane
	// simulator evolves every seed in one circuit pass per clock, so
	// the batch costs barely more wall time than the single run above.
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = cfg.BaseSeed + 15000 + uint64(i)
	}
	bcore, err := gapcirc.Build(gap.PaperParams(cfg.BaseSeed))
	if err != nil {
		return Table{}, err
	}
	bsim, err := bcore.Circuit.Compile()
	if err != nil {
		return Table{}, err
	}
	lanes, err := bcore.RunSeeds(bsim, seeds, 11, 0)
	if err != nil {
		return Table{}, err
	}
	var perGen float64
	for _, r := range lanes {
		perGen += float64(r.Cycles) / 11
	}
	perGen /= float64(len(lanes))
	t.AddRow(fmt.Sprintf("gate-level, %d seeds lane-packed", len(seeds)),
		fmt.Sprintf("%.0f", perGen), "-",
		fmt.Sprintf("11-generation average per seed (incl. init), one 64-lane simulator, %d clocks total", bsim.Cycles()))
	return t, nil
}

// X1BigGenome runs the paper's future-work scenario: bigger genomes
// (4 walk steps, 72 bits).
func X1BigGenome(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:     "X1",
		Title:  "Future work: 72-bit (4-step) genomes",
		Header: []string{"quantity", "36-bit (paper)", "72-bit (future work)"},
	}
	n := min(cfg.runs(), 20)
	baseCfg := cfg
	baseCfg.Runs = n
	baseCfg.BaseSeed = cfg.BaseSeed + 9000
	baseSample, err := generationSample(ctx, baseCfg, n)
	if err != nil {
		return Table{}, err
	}
	base := stats.Summarize(baseSample)

	ly := genome.Layout{Steps: 4, Legs: 6}
	results, err := engine.Map(ctx, cfg.Workers, n, func(i int) (gap.Result, error) {
		p := gap.PaperParams(cfg.BaseSeed + 9500 + uint64(i))
		p.Layout = ly
		p.MaxGenerations = 100000
		g, err := gap.New(p)
		if err != nil {
			return gap.Result{}, err
		}
		return g.RunCtx(ctx, nil)
	})
	if err != nil {
		return Table{}, err
	}
	var sample, dist []float64
	conv := 0
	for _, r := range results {
		if r.Converged {
			conv++
			sample = append(sample, float64(r.Generations))
			m := robot.Walk(r.Best, robot.Trial{Cycles: 5})
			dist = append(dist, m.DistanceMM)
		}
	}
	s := stats.Summarize(sample)
	t.AddRow("search space", "2^36", "2^72")
	t.AddRow("max fitness", fitness.New().Max(),
		fitness.Evaluator{Layout: ly, Weights: fitness.DefaultWeights}.Max())
	t.AddRow("converged", fmt.Sprintf("%d/%d", base.N, n), fmt.Sprintf("%d/%d", conv, n))
	t.AddRow("mean generations", fmt.Sprintf("%.0f", base.Mean), fmt.Sprintf("%.0f", s.Mean))
	t.AddRow("champion mean distance (mm)", "-", fmt.Sprintf("%.0f", stats.Summarize(dist).Mean))
	t.Note("the GAP generalizes unchanged to the bigger genome; generations grow sub-exponentially " +
		"because the rule fitness stays decomposable.")
	return t, nil
}

// Experiment is one named experiment of the suite.
type Experiment func(context.Context, Config) (Table, error)

// All runs every experiment in index order, stopping at the first
// error (including context cancellation); the tables completed so far
// are returned alongside the error.
func All(ctx context.Context, cfg Config) ([]Table, error) {
	experiments := []Experiment{
		E1Parameters,
		E2Generations,
		E3Time,
		E4Resources,
		E5WalkQuality,
		F3ClosedLoop,
		F4Controller,
		F5Pipeline,
		A1RuleAblation,
		A2Baselines,
		A3ParamSweep,
		A4DistanceFitness,
		A5Processor,
		A6FaultRecovery,
		X1BigGenome,
	}
	out := make([]Table, 0, len(experiments))
	for _, f := range experiments {
		t, err := f(ctx, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

func rate(hits, n int) string {
	return fmt.Sprintf("%d/%d", hits, n)
}

func meanOf(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", stats.Summarize(xs).Mean)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
