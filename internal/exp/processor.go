package exp

import (
	"context"
	"fmt"
	"time"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
	"leonardo/internal/mcu"
	"leonardo/internal/stats"
)

// A5Processor quantifies the paper's central design choice — "In our
// approach we want to avoid the use of processors" — by running the
// same genetic algorithm as firmware on the processor-based control
// board (§2: the Khepera-derived card) and comparing cycle costs with
// the evolvable-hardware GAP at the same 1 MHz clock.
func A5Processor(ctx context.Context, cfg Config) (Table, error) {
	t := Table{
		ID:    "A5",
		Title: "Processor board vs evolvable hardware at 1 MHz (same GA, same parameters)",
		Header: []string{"implementation", "converged", "mean gens",
			"cycles/generation", "mean run time @1MHz"},
	}
	n := min(cfg.runs(), 15)

	// Firmware GA on the MCU, seeds in parallel.
	fw, err := engine.Map(ctx, cfg.Workers, n, func(i int) (mcu.GAResult, error) {
		return mcu.RunGA(cfg.BaseSeed+13000+uint64(i), 100000)
	})
	if err != nil {
		return Table{}, err
	}
	var gens, cpg []float64
	conv := 0
	for _, res := range fw {
		if !res.Converged {
			continue
		}
		conv++
		gens = append(gens, float64(res.Generations))
		if res.Generations > 0 {
			cpg = append(cpg, float64(res.Cycles)/float64(res.Generations))
		}
	}
	gs, cs := stats.Summarize(gens), stats.Summarize(cpg)
	mcuTime := time.Duration(gs.Mean * cs.Mean / gap.ClockHz * float64(time.Second))
	t.AddRow("processor board (firmware GA)", fmt.Sprintf("%d/%d", conv, n),
		fmt.Sprintf("%.0f", gs.Mean), fmt.Sprintf("%.0f", cs.Mean), fmtDuration(mcuTime))

	// Evolvable hardware (behavioural generations, measured circuit
	// cycle cost), seeds in parallel.
	hwRuns, err := engine.Map(ctx, cfg.Workers, n, func(i int) (gap.Result, error) {
		p := gap.PaperParams(cfg.BaseSeed + 14000 + uint64(i))
		g, err := gap.New(p)
		if err != nil {
			return gap.Result{}, err
		}
		return g.RunCtx(ctx, nil)
	})
	if err != nil {
		return Table{}, err
	}
	gens = nil
	conv = 0
	for _, r := range hwRuns {
		if !r.Converged {
			continue
		}
		conv++
		gens = append(gens, float64(r.Generations))
	}
	gs = stats.Summarize(gens)
	hw := gap.PaperTiming()
	hwTime := hw.RunDuration(int(gs.Mean + 0.5))
	t.AddRow("evolvable hardware (GAP circuit)", fmt.Sprintf("%d/%d", conv, n),
		fmt.Sprintf("%.0f", gs.Mean), fmt.Sprint(hw.CyclesPerGeneration()), fmtDuration(hwTime))

	ratio := cs.Mean / float64(hw.CyclesPerGeneration())
	t.Note("per generation the processor needs ~%.0fx the clock cycles of the dedicated logic: "+
		"the fitness module alone costs hundreds of instructions in software but settles combinationally "+
		"in hardware. This is the arithmetic behind the paper's decision to avoid processors.", ratio)
	return t, nil
}
