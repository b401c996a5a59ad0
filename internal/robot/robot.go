// Package robot models Leonardo, the six-legged robot of the paper:
// its geometry (Fig. 1: a 240 mm x 200 mm body, six legs with two
// degrees of freedom each plus an elastic lateral joint, ground- and
// obstacle-contact sensors), and a quasi-static walking simulator that
// plays a genome-configured controller and measures how well the
// resulting gait actually walks.
//
// The paper evaluates fitness purely in logic (internal/fitness) and
// uses the physical robot only to execute the evolved gait; this
// simulator plays that role — it validates champions (experiment E5)
// and implements the paper's discarded "first idea" of measuring
// fitness from the distance travelled.
//
// The walking model is quasi-static, matching the slow, statically
// stable locomotion regime of the real machine:
//
//   - a leg is either raised (swing) or grounded (stance);
//   - grounded feet do not slip individually; when grounded feet
//     command inconsistent motions the body follows their mean and the
//     disagreement is booked as slip;
//   - the robot is stable while its centre of mass lies inside the
//     support polygon of the grounded feet. When it is not, the robot
//     stumbles: raised feet have only LiftHeight of clearance, so the
//     tipping body settles onto one of them and keeps moving, at
//     degraded efficiency (StumbleEfficiency) — the paper's own word
//     for the event ("it will stumble and fall, resulting in a bad
//     fitness value").
package robot

import (
	"fmt"
	"math"
	"sync"

	"leonardo/internal/controller"
	"leonardo/internal/genome"
)

// Geometry of Leonardo, in millimetres (paper Fig. 1).
const (
	// BodyLength and BodyWidth are the paper's outline dimensions.
	BodyLength = 240.0
	BodyWidth  = 200.0
	// LegSpacingX separates the leg attachment rows along the body.
	LegSpacingX = 100.0
	// HipY is the lateral offset of the hips from the body midline.
	HipY = 100.0
	// StrideHalf is the horizontal foot throw from neutral at full
	// propulsion deflection.
	StrideHalf = 20.0
	// LiftHeight is the foot clearance of a raised leg.
	LiftHeight = 15.0
	// StumbleEfficiency scales the body displacement of a phase
	// executed while statically unstable: the tilted, partially
	// settled robot wastes about half its propulsion.
	StumbleEfficiency = 0.5
	// MassKG is the robot's mass ("weighting 1 kg").
	MassKG = 1.0
	// DegreesOfFreedom counts the actuated DOF: 2 per leg plus the
	// body articulation.
	DegreesOfFreedom = 13
)

// HipPosition returns the body-frame attachment point of a leg.
// Legs L1,L2,L3 run front-to-rear on the left (+Y); R1,R2,R3 on the
// right.
func HipPosition(leg genome.Leg) Vec2 {
	row := int(leg) % 3 // 0 front, 1 middle, 2 rear
	x := LegSpacingX * float64(1-row)
	y := HipY
	if !leg.Left() {
		y = -HipY
	}
	return Vec2{X: x, Y: y}
}

// FootPosition returns the body-frame ground-plane position of a foot
// for a given horizontal deflection (forward = +StrideHalf).
func FootPosition(leg genome.Leg, forward bool) Vec2 {
	hip := HipPosition(leg)
	dx := -StrideHalf
	if forward {
		dx = StrideHalf
	}
	return Vec2{X: hip.X + dx, Y: hip.Y}
}

// Sensors is the robot's contact-sensor state: per-leg ground contact
// and obstacle contact (the two "simple contacts" of the paper).
type Sensors struct {
	Ground   [genome.Legs]bool
	Obstacle [genome.Legs]bool
}

// Trial configures a simulated walk.
type Trial struct {
	// Cycles is the number of full gait cycles to execute.
	Cycles int
	// PhaseSeconds is the wall time per micro-movement; zero means
	// controller.DefaultPhaseSeconds.
	PhaseSeconds float64
	// ObstacleAt places a wall across the floor at this forward
	// distance (mm) from the start; zero means no obstacle. The robot
	// stops against it and front obstacle sensors assert.
	ObstacleAt float64
	// ArticulationDeg bends the body joint (Fig. 1a, "the most
	// original mechanical part of the robot [which] allows the robot
	// to make efficient turns"): the front leg row's stride direction
	// rotates by this angle, steering the walk. Positive bends left.
	ArticulationDeg float64
	// FailedLeg injects a servo failure: the 1-based leg number
	// (1 = L1 .. 6 = R3) of a leg whose both servos are dead — it
	// stays grounded where it is and drags. 0 means no failure. This
	// is the fault-recovery scenario of the evolvable-hardware
	// literature: re-evolving a gait for the damaged machine.
	FailedLeg int
}

// Metrics reports how a gait performed.
type Metrics struct {
	// DistanceMM is the net forward body displacement.
	DistanceMM float64
	// SlipMM accumulates the magnitude of stance-foot disagreement.
	SlipMM float64
	// Stumbles counts phases executed without a statically stable
	// support (the body settles onto raised feet and loses
	// efficiency).
	Stumbles int
	// StablePhases and Phases count phases executed upright vs total.
	StablePhases, Phases int
	// MeanMargin is the average static stability margin (mm) over
	// upright phases.
	MeanMargin float64
	// DurationSeconds is the simulated wall time.
	DurationSeconds float64
	// HitObstacle reports whether the robot reached the obstacle.
	HitObstacle bool
	// PathLengthMM is the length of the path the body centre traced.
	PathLengthMM float64
	// DisplacementMM is the straight-line distance between start and
	// end positions in the world frame.
	DisplacementMM float64
	// HeadingDeg is the final heading (counterclockwise positive).
	HeadingDeg float64
}

// SpeedMMPerSec returns average forward speed.
func (m Metrics) SpeedMMPerSec() float64 {
	if m.DurationSeconds == 0 {
		return 0
	}
	return m.DistanceMM / m.DurationSeconds
}

// String renders the metrics on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("distance %.0f mm in %.1f s (%.1f mm/s), stumbles %d, slip %.0f mm, mean margin %.1f mm",
		m.DistanceMM, m.DurationSeconds, m.SpeedMMPerSec(), m.Stumbles, m.SlipMM, m.MeanMargin)
}

// Robot is a simulated Leonardo executing a walking controller.
type Robot struct {
	ctl      *controller.Controller
	pose     Pose
	posture  posture
	stumbled bool // last phase executed without stable support
	hitOb    bool
	// articulation is the body-joint angle in radians (+ = left).
	articulation float64
	// failed holds a dead leg's Up and Forward bits, or 0.
	failed posture
}

// posture is the commanded state of Leonardo's six legs packed into
// 12 bits: bit l is leg l's Up flag and bit genome.Legs+l its Forward
// flag. It is everything the kinematics read of a posture, and it
// indexes the stability-margin table.
type posture uint16

// upBits masks the Up flags of a posture.
const upBits posture = 1<<genome.Legs - 1

func (p posture) up(l int) bool      { return p>>uint(l)&1 != 0 }
func (p posture) forward(l int) bool { return p>>uint(genome.Legs+l)&1 != 0 }

// postureOf packs the six legs of a controller posture. A wider
// layout's extra legs are not part of the simulated body.
//
//leo:hotpath
func postureOf(c controller.Posture) posture {
	var p posture
	for l := 0; l < genome.Legs; l++ {
		if c.Up[l] {
			p |= 1 << uint(l)
		}
		if c.Forward[l] {
			p |= 1 << uint(genome.Legs+l)
		}
	}
	return p
}

// New places a robot at the origin with the given controller. All
// legs start grounded at the rear of their stride (the controller's
// initial posture).
func New(ctl *controller.Controller) *Robot {
	return &Robot{ctl: ctl, posture: postureOf(ctl.Posture())}
}

// FailLeg kills both servos of a leg: it stays grounded at its current
// stride position and drags from then on.
func (r *Robot) FailLeg(leg genome.Leg) {
	if leg < 0 || leg >= genome.Legs {
		panic(fmt.Sprintf("robot: no leg %d to fail", int(leg)))
	}
	r.failed = 1<<uint(leg) | 1<<uint(genome.Legs+int(leg))
}

// NewForGenome is a convenience wrapping controller.New.
func NewForGenome(g genome.Genome) *Robot {
	return New(controller.New(g))
}

// Position returns the body's forward (world +X) displacement in
// millimetres.
func (r *Robot) Position() float64 { return r.pose.X }

// Pose returns the full world-frame pose.
func (r *Robot) Pose() Pose { return r.pose }

// SetArticulation bends the body joint (degrees, positive left). The
// front leg row's stride direction rotates with the joint.
func (r *Robot) SetArticulation(deg float64) {
	r.articulation = deg * math.Pi / 180
}

// Stumbled reports whether the last phase ran without a statically
// stable support.
func (r *Robot) Stumbled() bool { return r.stumbled }

// Sensors returns the current contact-sensor state. While stumbled,
// the body rests on its raised feet too, so every ground contact
// asserts.
func (r *Robot) Sensors() Sensors {
	var s Sensors
	for l := 0; l < genome.Legs; l++ {
		s.Ground[l] = !r.posture.up(l) || r.stumbled
	}
	if r.hitOb {
		// The front legs touch the wall.
		s.Obstacle[genome.L1] = true
		s.Obstacle[genome.R1] = true
	}
	return s
}

// stanceFeet returns the feet on the ground under a posture.
func stanceFeet(p posture) []Vec2 {
	var out []Vec2
	for l := 0; l < genome.Legs; l++ {
		if !p.up(l) {
			out = append(out, FootPosition(genome.Leg(l), p.forward(l)))
		}
	}
	return out
}

var (
	marginOnce sync.Once
	// marginTable holds margin(p) for every 12-bit posture p.
	marginTable [1 << (2 * genome.Legs)]float64
)

// margin returns the static stability margin for a posture: the
// centre of mass is at the body origin. The margin depends on the 12
// posture bits alone (articulation steers strides, not foot
// positions), so it is served from a table of all 4,096 postures,
// filled on the first trial by the very StabilityMargin call it
// replaces: exact by construction, and a trial's phases cost no hull.
//
//leo:hotpath
func margin(p posture) float64 {
	marginOnce.Do(func() {
		for i := range marginTable {
			marginTable[i] = StabilityMargin(Vec2{}, stanceFeet(posture(i)))
		}
	})
	return marginTable[p]
}

// PhaseResult is the outcome of executing one controller phase.
type PhaseResult struct {
	Move controller.MicroMove
	// Displacement is the forward (body-frame +X) progress of the
	// phase; Twist is the full body-frame velocity and Omega the yaw
	// change (radians).
	Displacement float64
	Twist        Vec2
	Omega        float64
	Slip         float64
	Margin       float64
	Stumbled     bool
	Upright      bool
}

// rowSteer returns the fraction of the articulation angle a leg's
// stride direction follows: the joint is in the body middle, so the
// front segment (and its leg row) rotates by +1/2 the bend and the
// rear segment by -1/2, while the middle row stays on the joint axis.
func rowSteer(leg genome.Leg) float64 {
	switch int(leg) % 3 {
	case 0: // front row
		return 0.5
	case 2: // rear row
		return -0.5
	default:
		return 0
	}
}

// Step executes one controller phase and returns its outcome. It
// allocates nothing.
//
//leo:hotpath
func (r *Robot) Step(obstacleAt float64) PhaseResult {
	before := r.posture
	move := r.ctl.Move()
	after := postureOf(r.ctl.AdvanceShared())

	// A failed leg ignores its commands: grounded (Up cleared), frozen
	// in place (Forward kept from before).
	after = after&^r.failed | before&r.failed&^upBits

	res := PhaseResult{Move: move}

	// Horizontal phase: stance feet push the body. The commanded foot
	// motions are fitted to a rigid body twist (translation + yaw);
	// inconsistent strides become slip, differential strides become
	// turning.
	if move == controller.MoveHorizontal {
		var feet, strides [genome.Legs]Vec2
		n := 0
		for l := 0; l < genome.Legs; l++ {
			if before.up(l) {
				continue // swing legs reposition freely
			}
			leg := genome.Leg(l)
			d := FootPosition(leg, after.forward(l)).X -
				FootPosition(leg, before.forward(l)).X
			stride := Vec2{X: d}
			if steer := rowSteer(leg) * r.articulation; steer != 0 {
				// The bent body segment strokes along its own axis.
				sinA, cosA := math.Sincos(steer)
				stride = Vec2{X: d * cosA, Y: d * sinA}
			}
			feet[n], strides[n] = FootPosition(leg, before.forward(l)), stride
			n++
		}
		// ok is false only when every leg is in swing: no stance feet,
		// so the body has nothing to push against and stays put.
		if v, omega, slip, ok := RigidMotion(feet[:n], strides[:n]); ok {
			res.Twist, res.Omega, res.Slip = v, omega, slip
			res.Displacement = v.X
		}
	}

	// Stability during the phase: with no stable support the body
	// settles onto its raised feet and the phase's propulsion
	// degrades.
	res.Margin = margin(after)
	if res.Margin <= 0 {
		res.Stumbled = true
		res.Displacement *= StumbleEfficiency
		res.Twist.X *= StumbleEfficiency
		res.Twist.Y *= StumbleEfficiency
		res.Omega *= StumbleEfficiency
	}
	r.stumbled = res.Stumbled
	res.Upright = !res.Stumbled

	// Obstacle: clamp forward motion at the wall (straight-approach
	// model: the wall is normal to world +X).
	if obstacleAt > 0 {
		front := r.pose.X + BodyLength/2 + StrideHalf
		if front+res.Twist.X >= obstacleAt {
			clamped := math.Max(0, obstacleAt-front)
			res.Twist.X = clamped
			res.Displacement = clamped
			r.hitOb = true
		}
	}
	r.pose = r.pose.Advance(res.Twist, res.Omega)
	r.posture = after
	return res
}

// Walk runs a full trial for a genome of any layout and returns the
// metrics. It is the package's main entry point.
func Walk(x genome.Extended, trial Trial) Metrics {
	ctl := controller.NewExtended(x)
	r := New(ctl)
	return r.Run(trial)
}

// WalkGenome runs a trial for a packed 36-bit genome.
func WalkGenome(g genome.Genome, trial Trial) Metrics {
	return Walk(genome.FromGenome(g), trial)
}

// Run executes the trial on this robot.
//
//leo:allow ctx bounded by the trial's cycle count; a full trial is milliseconds of work
func (r *Robot) Run(trial Trial) Metrics {
	phaseSec := trial.PhaseSeconds
	if phaseSec == 0 {
		phaseSec = controller.DefaultPhaseSeconds
	}
	cycles := trial.Cycles
	if cycles <= 0 {
		cycles = 1
	}
	if trial.ArticulationDeg != 0 {
		r.SetArticulation(trial.ArticulationDeg)
	}
	if trial.FailedLeg > 0 && trial.FailedLeg <= genome.Legs {
		r.FailLeg(genome.Leg(trial.FailedLeg - 1))
	}
	var m Metrics
	var marginSum float64
	phases := cycles * r.ctl.CyclePhases()
	for i := 0; i < phases; i++ {
		res := r.Step(trial.ObstacleAt)
		m.Phases++
		m.DistanceMM += res.Displacement
		m.PathLengthMM += math.Hypot(res.Twist.X, res.Twist.Y)
		m.SlipMM += res.Slip
		if res.Stumbled {
			m.Stumbles++
		}
		if res.Upright {
			m.StablePhases++
			marginSum += res.Margin
		}
	}
	if m.StablePhases > 0 {
		m.MeanMargin = marginSum / float64(m.StablePhases)
	}
	m.DurationSeconds = float64(phases) * phaseSec
	m.HitObstacle = r.hitOb
	m.DisplacementMM = math.Hypot(r.pose.X, r.pose.Y)
	m.HeadingDeg = r.pose.HeadingDeg()
	return m
}

// DistanceFitness is the paper's "first idea" for a fitness function:
// measure the distance travelled in a fixed-length trial, directly on
// the (simulated) robot. It needs seconds per genome — exactly the
// dynamic constraint that pushed the authors to the logic rules — but
// serves as ground truth for validating them (experiment E5/A1).
// Negative scores are clamped to zero. Stumbles are penalized by one
// stride each.
func DistanceFitness(x genome.Extended, cycles int) int {
	m := Walk(x, Trial{Cycles: cycles})
	score := m.DistanceMM - float64(m.Stumbles)*2*StrideHalf
	if score < 0 {
		return 0
	}
	return int(score)
}
