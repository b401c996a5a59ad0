package robot

import (
	"math"
	"testing"

	"leonardo/internal/controller"
	"leonardo/internal/gait"
	"leonardo/internal/genome"
)

// TestMarginTableExact is the exactness wall of the posture margin
// table: for all 4,096 postures, the served margin is bit-equal to the
// convex-hull computation it replaces.
func TestMarginTableExact(t *testing.T) {
	for i := range marginTable {
		p := posture(i)
		got, want := margin(p), StabilityMargin(Vec2{}, stanceFeet(p))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("posture %012b: table margin %v, hull margin %v", i, got, want)
		}
	}
}

// TestPostureOfRoundTrip pins the 12-bit packing to the controller's
// posture: every leg's Up and Forward flag lands on its own bit.
func TestPostureOfRoundTrip(t *testing.T) {
	for i := 0; i < 1<<(2*genome.Legs); i++ {
		c := controller.Posture{Up: make([]bool, genome.Legs), Forward: make([]bool, genome.Legs)}
		for l := 0; l < genome.Legs; l++ {
			c.Up[l] = i>>l&1 != 0
			c.Forward[l] = i>>(genome.Legs+l)&1 != 0
		}
		p := postureOf(c)
		if int(p) != i {
			t.Fatalf("postureOf(%v) = %012b, want %012b", c, p, i)
		}
		for l := 0; l < genome.Legs; l++ {
			if p.up(l) != c.Up[l] || p.forward(l) != c.Forward[l] {
				t.Fatalf("posture %012b leg %d: up/forward disagree with %v", i, l, c)
			}
		}
	}
}

// TestAllocs pins the kinematic trial's allocation budget: a trial
// allocates only its set-up (genome, controller, robot), never per
// phase, so a 64-cycle trial allocates exactly as often as a 4-cycle
// one. The name matches the CI alloc-budget step's -run TestAllocs
// filter.
func TestAllocs(t *testing.T) {
	margin(0) // fill the margin table outside the measurement
	for _, tr := range []Trial{{}, {ArticulationDeg: 12}, {FailedLeg: 2}, {ObstacleAt: 150}} {
		allocs := func(cycles int) float64 {
			tr := tr
			tr.Cycles = cycles
			return testing.AllocsPerRun(50, func() { WalkGenome(gait.Tripod(), tr) })
		}
		if short, long := allocs(4), allocs(64); short != long {
			t.Fatalf("trial %+v: %v allocs at 4 cycles, %v at 64: a phase allocates", tr, short, long)
		}
	}
	r := New(controller.New(gait.Tripod()))
	if n := testing.AllocsPerRun(100, func() { r.Step(0) }); n != 0 {
		t.Fatalf("Robot.Step allocates %v times per phase, want 0", n)
	}
}

func BenchmarkWalkGenome(b *testing.B) {
	g := gait.Tripod()
	trial := Trial{Cycles: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WalkGenome(g, trial)
	}
}
