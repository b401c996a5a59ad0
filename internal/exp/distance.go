package exp

import (
	"context"
	"fmt"
	"time"

	"leonardo/internal/engine"
	"leonardo/internal/gait"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/robot"
	"leonardo/internal/stats"
)

// trialCycles is the length of an on-robot fitness trial: two gait
// cycles, matching the paper's "about five seconds" per genome at the
// default phase timing.
const trialCycles = 2

// robotTrialSeconds is the wall time one on-robot evaluation costs the
// physical machine.
const robotTrialSeconds = 5.0

// distanceObjective is the paper's rejected "first idea": measure
// fitness directly on the robot as distance travelled in a fixed
// trial. The target is the tripod's score — the best walk known.
type distanceObjective struct{ target int }

func (d distanceObjective) ScoreExtended(x genome.Extended) int {
	return robot.DistanceFitness(x, trialCycles)
}
func (d distanceObjective) Max() int { return d.target }

// A4DistanceFitness compares the paper's logic-rule fitness against
// the on-robot distance fitness it rejected: quality of the evolved
// walkers, and — decisively — the wall-clock cost on the physical
// robot ("the robot ... needs to try a genome for about five seconds
// ... This time is too long to be used in our case").
func A4DistanceFitness(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:    "A4",
		Title: "Rule fitness vs on-robot distance fitness (the paper's rejected 'first idea')",
		Header: []string{"fitness", "converged", "mean gens", "evaluations",
			"robot time/run", "champion distance (mm)"},
	}
	n := min(cfg.runs(), 10)
	tripodScore := robot.DistanceFitness(genome.FromGenome(gait.Tripod()), trialCycles)

	// Rule-based evolution (the paper's design), seeds in parallel.
	type outcome struct {
		converged   bool
		gens, evals float64
		dist        float64
	}
	ruleOuts, err := engine.Map(ctx, cfg.Workers, n, func(i int) (outcome, error) {
		p := gap.PaperParams(cfg.BaseSeed + 11000 + uint64(i))
		g, err := gap.New(p)
		if err != nil {
			return outcome{}, err
		}
		r, err := g.RunCtx(ctx, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			converged: r.Converged,
			gens:      float64(r.Generations),
			evals:     float64(g.Ops().Evaluations),
			dist:      robot.Walk(r.Best, robot.Trial{Cycles: trialCycles}).DistanceMM,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	var gens, evals, dist []float64
	conv := 0
	for _, o := range ruleOuts {
		if !o.converged {
			continue
		}
		conv++
		gens = append(gens, o.gens)
		evals = append(evals, o.evals)
		dist = append(dist, o.dist)
	}
	gs, es, ds := stats.Summarize(gens), stats.Summarize(evals), stats.Summarize(dist)
	// Logic fitness costs ~38 cycles per individual at 1 MHz: round
	// the per-run chip time to the E3 model.
	ruleTime := gap.PaperTiming().RunDuration(int(gs.Mean + 0.5))
	t.AddRow("three logic rules (paper)", fmt.Sprintf("%d/%d", conv, n),
		fmt.Sprintf("%.0f", gs.Mean), fmt.Sprintf("%.0f", es.Mean),
		fmtDuration(ruleTime), fmt.Sprintf("%.0f", ds.Mean))

	// On-robot distance evolution (the rejected idea), seeds in
	// parallel.
	outs, err := engine.Map(ctx, cfg.Workers, n, func(i int) (outcome, error) {
		p := gap.PaperParams(cfg.BaseSeed + 12000 + uint64(i))
		p.Objective = distanceObjective{target: tripodScore}
		p.MaxGenerations = 3000
		g, err := gap.New(p)
		if err != nil {
			return outcome{}, err
		}
		r, err := g.RunCtx(ctx, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			converged: r.Converged,
			gens:      float64(r.Generations),
			evals:     float64(g.Ops().Evaluations),
			dist:      robot.Walk(r.Best, robot.Trial{Cycles: trialCycles}).DistanceMM,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	gens, evals, dist = nil, nil, nil
	conv = 0
	for _, o := range outs {
		if o.converged {
			conv++
		}
		gens = append(gens, o.gens)
		evals = append(evals, o.evals)
		dist = append(dist, o.dist)
	}
	gs, es, ds = stats.Summarize(gens), stats.Summarize(evals), stats.Summarize(dist)
	robotTime := time.Duration(es.Mean * robotTrialSeconds * float64(time.Second))
	t.AddRow(fmt.Sprintf("on-robot distance (target: tripod = %d)", tripodScore),
		fmt.Sprintf("%d/%d", conv, n),
		fmt.Sprintf("%.0f", gs.Mean), fmt.Sprintf("%.0f", es.Mean),
		fmtDuration(robotTime), fmt.Sprintf("%.0f", ds.Mean))

	t.Note("on-robot fitness needs %.0f s of physical walking per genome; at %.0f evaluations per run "+
		"that is %s of robot time — the quantitative version of the paper's reason for defining fitness "+
		"'only in terms of logic computations'.", robotTrialSeconds, es.Mean, fmtDuration(robotTime))
	return t, nil
}
