package logic_test

import (
	"math/rand/v2"
	"testing"

	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/logic"
)

// TestSettleMatchesOracle runs the paper's gate-level GAP, plain and
// freezable, with 64 distinct seeds, and after every clock cycle
// compares every node against the interpretive oracle on a twin
// simulator. Outside writes land mid-run on both: single-lane and
// broadcast RAM writes, RAM and flip-flop upsets, forced flip-flop
// lanes, per-lane freeze toggles, and a snapshot restore that rewinds
// both simulators.
func TestSettleMatchesOracle(t *testing.T) {
	cycles := 3000
	if testing.Short() {
		cycles = 600
	}
	for _, freezable := range []bool{false, true} {
		co, err := gapcirc.BuildWith(gap.PaperParams(1), gapcirc.BuildOpts{Freezable: freezable})
		if err != nil {
			t.Fatal(err)
		}
		o, err := logic.NewOracleTwin(co.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		o.Do(func(s *logic.Sim) {
			for l := 0; l < logic.Lanes; l++ {
				co.SeedLane(s, l, uint64(l)+1)
			}
		})
		dffs := o.DFFs()
		rng := rand.New(rand.NewPCG(7, 0))
		var saved logic.SimState
		for cyc := 1; cyc <= cycles; cyc++ {
			// Draw outside the actions: Do runs each one twice.
			lane, v := rng.IntN(logic.Lanes), rng.Uint64()
			switch {
			case cyc == cycles/3:
				saved = o.Sim.SnapshotState()
			case cyc == cycles/2:
				o.Do(func(s *logic.Sim) {
					if err := s.RestoreState(saved); err != nil {
						t.Fatal(err)
					}
				})
			case cyc == cycles*2/3:
				o.Do(func(s *logic.Sim) { s.LoadRAM("ram0", []uint64{v, v >> 3, v >> 7}) })
			case freezable && cyc%7 == 0:
				o.Do(func(s *logic.Sim) { s.SetLane(co.Freeze, lane, v&1 != 0) })
			case cyc%250 == 0:
				o.Do(func(s *logic.Sim) { s.WriteRAMLane("ram0", int(v>>40%32), lane, v) })
			case cyc%250 == 50:
				o.Do(func(s *logic.Sim) { s.FlipRAMBit("ram1", int(v%32), int(v>>8%36)) })
			case cyc%250 == 100:
				o.Do(func(s *logic.Sim) { s.SetDFFLane(dffs[int(v%uint64(len(dffs)))], lane, v>>32&1 != 0) })
			case cyc%250 == 150:
				o.Do(func(s *logic.Sim) { s.FlipDFF(dffs[int(v%uint64(len(dffs)))]) })
			}
			o.Step()
			if err := o.Check(); err != nil {
				t.Fatalf("freezable=%v, cycle %d: %v", freezable, cyc, err)
			}
		}
	}
}
