package robot

import "math"

// RigidMotion solves for the planar body twist that best explains a
// set of stance-foot motions, in the least-squares sense.
//
// Stance feet are fixed on the ground; when the legs command body-frame
// foot motions ṗ_i at body-frame positions p_i, the body must move with
// translation v (body frame) and yaw rate ω such that the world-frame
// foot velocities vanish:
//
//	residual_i = v + ω·J·p_i + ṗ_i,   J = rotation by +90°
//
// Minimizing Σ|residual_i|² gives, with centered coordinates
// (p̂ = p - p̄, ṗ̂ = ṗ - ṗ̄):
//
//	ω  = Σ (p̂_i × ṗ̂_i withhat cross) / Σ|p̂_i|²   (see below)
//	v  = -ṗ̄ - ω·J·p̄
//
// The slip of each foot is the residual magnitude — the motion the
// ground had to absorb because the commanded strides were not
// consistent with any rigid body motion.
//
// All-equal strides reduce to the familiar straight-walk case
// v = -ṗ̄, ω = 0.
//
// ok reports whether the inputs define a motion at all: it is false
// when there are no stance feet (n == 0) or when feet and strides
// disagree in length, and the zero twist returned alongside it is a
// sentinel, not a solution. Coincident feet (all p_i equal) leave the
// rotation unobservable; the solver then fixes ω = 0 and reports
// ok = true, since the translational part is still well-defined.
//
//leo:hotpath
func RigidMotion(feet, strides []Vec2) (v Vec2, omega float64, slip float64, ok bool) {
	n := len(feet)
	if n == 0 || n != len(strides) {
		return Vec2{}, 0, 0, false
	}
	var pBar, sBar Vec2
	for i := range feet {
		pBar.X += feet[i].X
		pBar.Y += feet[i].Y
		sBar.X += strides[i].X
		sBar.Y += strides[i].Y
	}
	pBar.X /= float64(n)
	pBar.Y /= float64(n)
	sBar.X /= float64(n)
	sBar.Y /= float64(n)

	var num, den float64
	for i := range feet {
		px, py := feet[i].X-pBar.X, feet[i].Y-pBar.Y
		sx, sy := strides[i].X-sBar.X, strides[i].Y-sBar.Y
		// d/dω residual_i = J p̂_i = (-p̂y, p̂x); setting the gradient to
		// zero yields ω Σ|p̂|² = Σ (p̂y·sx - p̂x·sy) = -Σ p̂ × ŝ.
		num += py*sx - px*sy
		den += px*px + py*py
	}
	if den > 0 {
		omega = num / den
	}
	// v = -ṗ̄ - ω J p̄  with  J p̄ = (-p̄y, p̄x).
	v = Vec2{X: -sBar.X + omega*pBar.Y, Y: -sBar.Y - omega*pBar.X}

	for i := range feet {
		rx := v.X - omega*feet[i].Y + strides[i].X
		ry := v.Y + omega*feet[i].X + strides[i].Y
		slip += math.Hypot(rx, ry)
	}
	return v, omega, slip, true
}

// Pose is the robot's world-frame pose: position of the body centre
// and heading (radians, counterclockwise, 0 = +X).
type Pose struct {
	X, Y  float64
	Theta float64
}

// Advance integrates a body-frame twist into the world pose: rotate
// the body-frame velocity into the world and accumulate the yaw.
func (p Pose) Advance(v Vec2, omega float64) Pose {
	sin, cos := math.Sincos(p.Theta)
	return Pose{
		X:     p.X + v.X*cos - v.Y*sin,
		Y:     p.Y + v.X*sin + v.Y*cos,
		Theta: p.Theta + omega,
	}
}

// HeadingDeg returns the heading in degrees.
func (p Pose) HeadingDeg() float64 { return p.Theta * 180 / math.Pi }
