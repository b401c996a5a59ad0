package exp

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

var testCfg = Config{Runs: 6, BaseSeed: 1}

// runExp executes one experiment under a background context and fails
// the test on error.
func runExp(t *testing.T, f Experiment, cfg Config) Table {
	t.Helper()
	tb, err := f(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("x", 1)
	tb.AddRow("longer", 2.5)
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"== T: demo ==", "longer", "2.50", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestE1Parameters(t *testing.T) {
	tb := runExp(t, E1Parameters, testCfg)
	if len(tb.Rows) != 6 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
	// Realized selection rate must be near 0.8.
	found := false
	for _, row := range tb.Rows {
		if row[0] == "selection threshold" {
			found = true
			if !strings.HasPrefix(row[3], "0.7") && !strings.HasPrefix(row[3], "0.8") {
				t.Errorf("realized selection rate suspicious: %q", row[3])
			}
		}
	}
	if !found {
		t.Fatal("selection threshold row missing")
	}
}

func TestE2Generations(t *testing.T) {
	tb := runExp(t, E2Generations, testCfg)
	if got := cell(t, tb, "runs converged", 2); got != "6/6" {
		t.Fatalf("converged = %q", got)
	}
	mean := cell(t, tb, "mean generations", 2)
	v, err := strconv.Atoi(strings.Fields(mean)[0])
	if err != nil || v < 5 || v > 10000 {
		t.Fatalf("mean generations = %q", mean)
	}
}

func TestE3Time(t *testing.T) {
	tb := runExp(t, E3Time, testCfg)
	if got := cell(t, tb, "exhaustive 2^36 @1MHz", 2); !strings.Contains(got, "h") {
		t.Fatalf("exhaustive duration = %q", got)
	}
	sp := cell(t, tb, "speedup", 2)
	v, err := strconv.Atoi(strings.TrimSuffix(sp, "x"))
	if err != nil || v < 100 {
		t.Fatalf("speedup = %q, want >= 100x", sp)
	}
}

func TestE4Resources(t *testing.T) {
	tb := runExp(t, E4Resources, testCfg)
	if len(tb.Rows) != 3 {
		t.Fatalf("E4 rows = %d", len(tb.Rows))
	}
	// RAM variant fits; register variant exceeds; paper in between.
	ramCLBs := atoiCell(t, tb.Rows[0][4])
	regCLBs := atoiCell(t, tb.Rows[1][4])
	if !(ramCLBs < 1244 && 1244 < regCLBs) {
		t.Fatalf("paper's 1244 CLBs not bracketed: ram %d, reg %d", ramCLBs, regCLBs)
	}
	if tb.Rows[0][6] != "true" {
		t.Fatal("RAM variant should fit")
	}
}

func TestE5WalkQuality(t *testing.T) {
	tb := runExp(t, E5WalkQuality, testCfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("E5 rows = %d", len(tb.Rows))
	}
	// Tripod row sanity: positive distance, zero falls.
	if atoiCell(t, tb.Rows[0][3]) != 0 {
		t.Fatal("tripod fell")
	}
	if atoiCell(t, tb.Rows[0][1]) <= 0 {
		t.Fatal("tripod distance not positive")
	}
}

func TestF3ClosedLoop(t *testing.T) {
	tb := runExp(t, F3ClosedLoop, testCfg)
	if len(tb.Rows) < 2 {
		t.Fatalf("F3 rows = %d", len(tb.Rows))
	}
	// Final row must be at max fitness if converged (fitness a/b with
	// a<=b); the last checkpoint's fitness must be >= the first's.
	first := fitOf(t, tb.Rows[0][1])
	last := fitOf(t, tb.Rows[len(tb.Rows)-1][1])
	if last < first {
		t.Fatalf("best fitness regressed across checkpoints: %d -> %d", first, last)
	}
}

func TestF4Controller(t *testing.T) {
	tb := runExp(t, F4Controller, testCfg)
	if len(tb.Rows) != 6 {
		t.Fatalf("F4 rows = %d", len(tb.Rows))
	}
	moves := []string{"V1", "H", "V2", "V1", "H", "V2"}
	for i, row := range tb.Rows {
		if row[2] != moves[i] {
			t.Fatalf("phase %d move = %q", i, row[2])
		}
	}
}

func TestF5Pipeline(t *testing.T) {
	tb := runExp(t, F5Pipeline, testCfg)
	if len(tb.Rows) != 4 {
		t.Fatalf("F5 rows = %d", len(tb.Rows))
	}
	seq := atoiCell(t, tb.Rows[0][1])
	pipe := atoiCell(t, tb.Rows[1][1])
	meas := atoiCell(t, strings.Fields(tb.Rows[2][1])[0])
	if pipe >= seq {
		t.Fatal("pipeline does not save cycles")
	}
	if meas < seq*3/4 || meas > seq*5/4 {
		t.Fatalf("measured %d vs modelled %d", meas, seq)
	}
	// The lane-packed sweep includes initialisation, so its average sits
	// a bit above the steady-state figure but in the same regime.
	batch := atoiCell(t, strings.Fields(tb.Rows[3][1])[0])
	if batch < seq*3/4 || batch > seq*2 {
		t.Fatalf("lane-packed measured %d vs modelled %d", batch, seq)
	}
}

func TestA1RuleAblation(t *testing.T) {
	tb := runExp(t, A1RuleAblation, Config{Runs: 4, BaseSeed: 1})
	if len(tb.Rows) != 7 {
		t.Fatalf("A1 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "R1+R2+R3 (paper)" {
		t.Fatal("first row must be the paper rule set")
	}
}

func TestA2Baselines(t *testing.T) {
	tb := runExp(t, A2Baselines, Config{Runs: 4, BaseSeed: 1})
	if len(tb.Rows) != 6 {
		t.Fatalf("A2 rows = %d", len(tb.Rows))
	}
}

func TestX1BigGenome(t *testing.T) {
	tb := runExp(t, X1BigGenome, Config{Runs: 3, BaseSeed: 1})
	if got := cell(t, tb, "search space", 2); got != "2^72" {
		t.Fatalf("search space = %q", got)
	}
}

func cell(t *testing.T, tb Table, rowName string, col int) string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == rowName {
			return row[col]
		}
	}
	t.Fatalf("row %q not found in %s", rowName, tb.ID)
	return ""
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.Fields(s)[0])
	if err != nil {
		t.Fatalf("cell %q not an int", s)
	}
	return v
}

func fitOf(t *testing.T, s string) int {
	t.Helper()
	parts := strings.Split(s, "/")
	v, err := strconv.Atoi(parts[0])
	if err != nil {
		t.Fatalf("fitness cell %q", s)
	}
	return v
}

func TestA3ParamSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep is slow")
	}
	tb := runExp(t, A3ParamSweep, Config{Runs: 2, BaseSeed: 1})
	if len(tb.Rows) != 14 {
		t.Fatalf("A3 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[0] == "" || row[2] == "" {
			t.Fatalf("malformed row %v", row)
		}
	}
}

func TestA4DistanceFitness(t *testing.T) {
	tb := runExp(t, A4DistanceFitness, Config{Runs: 2, BaseSeed: 1})
	if len(tb.Rows) != 2 {
		t.Fatalf("A4 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][0], "logic rules") {
		t.Fatal("first row must be the paper's fitness")
	}
	// The on-robot row's time must dwarf the rule row's.
	if !strings.Contains(tb.Notes[0], "robot time") {
		t.Fatal("missing robot-time note")
	}
}

func TestA5Processor(t *testing.T) {
	tb := runExp(t, A5Processor, Config{Runs: 3, BaseSeed: 1})
	if len(tb.Rows) != 2 {
		t.Fatalf("A5 rows = %d", len(tb.Rows))
	}
	mcuCyc := atoiCell(t, tb.Rows[0][3])
	hwCyc := atoiCell(t, tb.Rows[1][3])
	if mcuCyc <= hwCyc*10 {
		t.Fatalf("processor cycles/gen %d not clearly above hardware %d", mcuCyc, hwCyc)
	}
}

func TestA6FaultRecovery(t *testing.T) {
	tb := runExp(t, A6FaultRecovery, Config{Runs: 2, BaseSeed: 1})
	if len(tb.Rows) != 4 {
		t.Fatalf("A6 rows = %d", len(tb.Rows))
	}
	healthy := atoiCell(t, tb.Rows[0][1])
	damaged := atoiCell(t, tb.Rows[1][1])
	warm := atoiCell(t, tb.Rows[3][1])
	if damaged >= healthy {
		t.Fatal("failure did not degrade the tripod")
	}
	if warm < damaged {
		t.Fatalf("warm start (%d) fell below the incumbent (%d)", warm, damaged)
	}
}

func TestAllStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tables, err := All(ctx, Config{Runs: 2, BaseSeed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tables) != 0 {
		t.Fatalf("cancelled before the first experiment, got %d tables", len(tables))
	}
}
