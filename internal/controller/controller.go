// Package controller implements the evolvable walking controller of
// Discipulus Simplex (Fig. 4 of the paper): a state machine configured
// by the genome that generates the sequence of leg movements, plus the
// twelve servo-control channels (two per leg) that turn leg postures
// into PWM pulse widths.
//
// A genome encodes, for every step and leg, three micro-movements
// executed in order: a vertical move (up/down), a horizontal move
// (forward/backward), and a final vertical move. The controller steps
// through Steps x 3 phases cyclically; in each phase every leg applies
// the corresponding part of its gene while holding its other axis.
package controller

import (
	"fmt"

	"leonardo/internal/genome"
	"leonardo/internal/servo"
)

// MicroMove identifies which of the three micro-movements of a step a
// phase executes.
type MicroMove int

// The three micro-movements, in execution order.
const (
	// MoveVertical1 applies the gene's first vertical position.
	MoveVertical1 MicroMove = iota
	// MoveHorizontal applies the horizontal (forward/backward) move.
	MoveHorizontal
	// MoveVertical2 applies the gene's final vertical position.
	MoveVertical2
)

// MovesPerStep is the number of micro-movements per step.
const MovesPerStep = 3

func (m MicroMove) String() string {
	switch m {
	case MoveVertical1:
		return "V1"
	case MoveHorizontal:
		return "H"
	case MoveVertical2:
		return "V2"
	default:
		return fmt.Sprintf("MicroMove(%d)", int(m))
	}
}

// DefaultPhaseSeconds is the wall time allotted to one micro-movement.
// A full 2-step gait cycle is then 6 x 0.4 = 2.4 s, and the paper's
// "about five seconds" genome trial corresponds to two cycles.
const DefaultPhaseSeconds = 0.4

// Mechanical throw constants: the servo angles commanded for the two
// positions of each axis.
const (
	// ElevationUpDeg / ElevationDownDeg are the elevation servo
	// angles for a raised and a grounded leg.
	ElevationUpDeg   = 30.0
	ElevationDownDeg = -30.0
	// PropulsionFwdDeg / PropulsionBackDeg are the propulsion servo
	// angles for the front and rear of the stride.
	PropulsionFwdDeg  = 25.0
	PropulsionBackDeg = -25.0
)

// Posture is the commanded posture of all legs: Up and Forward flags
// per leg (Forward meaning the foot is at the front of its stride).
type Posture struct {
	Up      []bool
	Forward []bool
}

// Clone returns an independent copy.
func (p Posture) Clone() Posture {
	return Posture{
		Up:      append([]bool(nil), p.Up...),
		Forward: append([]bool(nil), p.Forward...),
	}
}

// Controller is the genome-configured walking state machine.
type Controller struct {
	x       genome.Extended
	phase   int // 0 .. Steps*MovesPerStep-1
	posture Posture
}

// New creates a controller for a packed 36-bit genome.
func New(g genome.Genome) *Controller {
	return NewExtended(genome.FromGenome(g))
}

// NewExtended creates a controller for a genome of any layout. All
// legs start down at the rear of their stride.
func NewExtended(x genome.Extended) *Controller {
	legs := x.Layout.Legs
	return &Controller{
		x: x.Clone(),
		posture: Posture{
			Up:      make([]bool, legs),
			Forward: make([]bool, legs),
		},
	}
}

// Layout returns the genome layout driving the controller.
func (c *Controller) Layout() genome.Layout { return c.x.Layout }

// Phase returns the current phase index in [0, Steps*3).
func (c *Controller) Phase() int { return c.phase }

// Step returns the walk step the current phase belongs to.
func (c *Controller) Step() int { return c.phase / MovesPerStep }

// Move returns the current micro-movement.
func (c *Controller) Move() MicroMove { return MicroMove(c.phase % MovesPerStep) }

// Posture returns the commanded posture after the current phase has
// been applied (a copy).
func (c *Controller) Posture() Posture { return c.posture.Clone() }

// Advance applies the current phase's micro-movement to every leg and
// moves to the next phase (wrapping at the end of the gait cycle). It
// returns the posture commanded during the phase just executed (a
// copy).
func (c *Controller) Advance() Posture { return c.AdvanceShared().Clone() }

// AdvanceShared is Advance without the copy: the returned posture
// shares the controller's own slices, so the next Advance changes it.
// It allocates nothing, which keeps a simulated trial's allocations
// independent of its length (robot.Robot.Step reads it once per phase).
//
//leo:hotpath
func (c *Controller) AdvanceShared() Posture {
	step, move := c.Step(), c.Move()
	for leg := 0; leg < c.x.Layout.Legs; leg++ {
		g := c.x.Gene(step, leg)
		switch move {
		case MoveVertical1:
			c.posture.Up[leg] = g.RaiseFirst
		case MoveHorizontal:
			c.posture.Forward[leg] = g.Forward
		case MoveVertical2:
			c.posture.Up[leg] = g.RaiseAfter
		}
	}
	c.phase = (c.phase + 1) % (c.x.Layout.Steps * MovesPerStep)
	return c.posture
}

// CyclePhases returns the number of phases in a full gait cycle.
func (c *Controller) CyclePhases() int { return c.x.Layout.Steps * MovesPerStep }

// ServoPulses converts the current posture into the pulse widths of
// the 2*Legs servo channels: channel 2*leg is the leg's elevation
// servo, channel 2*leg+1 its propulsion servo.
func (c *Controller) ServoPulses() []int {
	out := make([]int, 2*c.x.Layout.Legs)
	for leg := 0; leg < c.x.Layout.Legs; leg++ {
		elev := ElevationDownDeg
		if c.posture.Up[leg] {
			elev = ElevationUpDeg
		}
		prop := PropulsionBackDeg
		if c.posture.Forward[leg] {
			prop = PropulsionFwdDeg
		}
		out[2*leg] = servo.AngleToPulse(elev)
		out[2*leg+1] = servo.AngleToPulse(prop)
	}
	return out
}

// Snapshot is one executed phase: its step, micro-movement, and the
// posture commanded by it.
type Snapshot struct {
	Phase   int
	Step    int
	Move    MicroMove
	Posture Posture
}

// RunCycle executes n full gait cycles from the current state and
// returns the phase-by-phase trace. The controller is left at the
// cycle boundary.
//
//leo:allow ctx bounded to n*CyclePhases() table steps; finishes in microseconds
func (c *Controller) RunCycle(n int) []Snapshot {
	total := n * c.CyclePhases()
	out := make([]Snapshot, 0, total)
	for i := 0; i < total; i++ {
		phase, step, move := c.phase, c.Step(), c.Move()
		posture := c.Advance()
		out = append(out, Snapshot{Phase: phase, Step: step, Move: move, Posture: posture})
	}
	return out
}

// Reconfigure swaps in a new genome without resetting the mechanical
// posture — the paper's on-line reconfiguration: the GAP hands the
// best individual to the walking controller while the robot stands.
// The phase restarts at the beginning of the gait cycle.
func (c *Controller) Reconfigure(x genome.Extended) {
	if x.Layout != c.x.Layout {
		panic(fmt.Sprintf("controller: layout %+v does not match controller layout %+v",
			x.Layout, c.x.Layout))
	}
	c.x = x.Clone()
	c.phase = 0
}
