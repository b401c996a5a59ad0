// Package logic is the gate-level hardware substrate of the
// reproduction: a structural netlist builder and a cycle-accurate
// synchronous simulator. It stands in for the paper's FPGA fabric —
// the structural Discipulus Simplex (internal/gapcirc) is built from
// these primitives, simulated clock by clock, and mapped onto the
// XC4000 device model (internal/fpga) for the resource-usage
// experiment.
//
// The model is a single-clock synchronous netlist: combinational gates
// (NOT/AND/OR/XOR/MUX), D flip-flops with synchronous reset and clock
// enable, and small synchronous-write/asynchronous-read RAM blocks
// (the XC4000 CLB-as-RAM mode). Combinational loops are rejected at
// compile time.
package logic

import (
	"fmt"
)

// Signal identifies a single-bit net in a circuit. The constants
// Const0 and Const1 are valid in every circuit.
type Signal int32

// Constant signals, present in every circuit.
const (
	Const0 Signal = 0
	Const1 Signal = 1
)

type kind uint8

const (
	kConst kind = iota
	kInput
	kNot
	kAnd
	kOr
	kXor
	kMux // fc ? fb : fa
	kDFF // fa = D, fb = enable, fc = sync reset
	kRAMOut
)

func (k kind) String() string {
	switch k {
	case kConst:
		return "const"
	case kInput:
		return "input"
	case kNot:
		return "not"
	case kAnd:
		return "and"
	case kOr:
		return "or"
	case kXor:
		return "xor"
	case kMux:
		return "mux"
	case kDFF:
		return "dff"
	case kRAMOut:
		return "ramout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

type ramSpec struct {
	name  string
	addr  Bus
	din   Bus
	we    Signal
	out   []Signal // kRAMOut nodes, one per data bit
	words int
	width int
}

// Circuit is a netlist under construction. Create with New, add logic,
// then Compile into a Sim. A Circuit is not safe for concurrent use.
type Circuit struct {
	kinds      []kind
	fa, fb, fc []Signal
	ramIdx     []int32 // for kRAMOut: index into rams
	ramBit     []int32 // for kRAMOut: data bit index
	dffInit    map[Signal]bool
	rams       []*ramSpec
	inputs     map[string]Signal
	inputOrder []string
	outputs    map[string]Signal
	compiled   bool
}

// New creates an empty circuit containing only the two constants.
func New() *Circuit {
	c := &Circuit{
		dffInit: map[Signal]bool{},
		inputs:  map[string]Signal{},
		outputs: map[string]Signal{},
	}
	c.node(kConst, 0, 0, 0) // Const0
	c.node(kConst, 0, 0, 0) // Const1
	return c
}

func (c *Circuit) node(k kind, a, b, cc Signal) Signal {
	if c.compiled {
		panic("logic: circuit modified after Compile")
	}
	id := Signal(len(c.kinds))
	c.kinds = append(c.kinds, k)
	c.fa = append(c.fa, a)
	c.fb = append(c.fb, b)
	c.fc = append(c.fc, cc)
	c.ramIdx = append(c.ramIdx, -1)
	c.ramBit = append(c.ramBit, -1)
	return id
}

func (c *Circuit) check(sigs ...Signal) {
	for _, s := range sigs {
		if s < 0 || int(s) >= len(c.kinds) {
			panic(fmt.Sprintf("logic: signal %d out of range (circuit has %d nodes)", s, len(c.kinds)))
		}
	}
}

// NumNodes returns the total node count including constants.
func (c *Circuit) NumNodes() int { return len(c.kinds) }

// Input declares a named primary input.
func (c *Circuit) Input(name string) Signal {
	if _, dup := c.inputs[name]; dup {
		panic(fmt.Sprintf("logic: duplicate input %q", name))
	}
	s := c.node(kInput, 0, 0, 0)
	c.inputs[name] = s
	c.inputOrder = append(c.inputOrder, name)
	return s
}

// Output names a signal as a primary output. A signal may carry
// several output names; a name may be bound once.
func (c *Circuit) Output(name string, s Signal) {
	c.check(s)
	if _, dup := c.outputs[name]; dup {
		panic(fmt.Sprintf("logic: duplicate output %q", name))
	}
	c.outputs[name] = s
}

// OutputSignal returns the signal bound to a named output.
func (c *Circuit) OutputSignal(name string) (Signal, bool) {
	s, ok := c.outputs[name]
	return s, ok
}

// Not returns the negation of a.
func (c *Circuit) Not(a Signal) Signal {
	c.check(a)
	switch a {
	case Const0:
		return Const1
	case Const1:
		return Const0
	}
	return c.node(kNot, a, 0, 0)
}

// And returns the conjunction of its arguments (Const1 for none).
func (c *Circuit) And(in ...Signal) Signal { return c.reduce(kAnd, Const1, Const0, in) }

// Or returns the disjunction of its arguments (Const0 for none).
func (c *Circuit) Or(in ...Signal) Signal { return c.reduce(kOr, Const0, Const1, in) }

// Xor returns the exclusive-or of its arguments (Const0 for none).
func (c *Circuit) Xor(in ...Signal) Signal {
	c.check(in...)
	out := Const0
	for _, s := range in {
		switch {
		case out == Const0:
			out = s
		case s == Const0:
			// no-op
		case out == Const1:
			out = c.Not(s)
		case s == Const1:
			out = c.Not(out)
		default:
			out = c.node(kXor, out, s, 0)
		}
	}
	return out
}

// reduce folds a variadic associative gate with identity and
// absorbing-element simplification.
func (c *Circuit) reduce(k kind, identity, absorb Signal, in []Signal) Signal {
	c.check(in...)
	out := identity
	for _, s := range in {
		switch {
		case s == absorb || out == absorb:
			out = absorb
		case s == identity:
			// no-op
		case out == identity:
			out = s
		default:
			out = c.node(k, out, s, 0)
		}
	}
	return out
}

// Mux returns sel ? hi : lo.
func (c *Circuit) Mux(sel, lo, hi Signal) Signal {
	c.check(sel, lo, hi)
	switch sel {
	case Const0:
		return lo
	case Const1:
		return hi
	}
	if lo == hi {
		return lo
	}
	return c.node(kMux, lo, hi, sel)
}

// Nand, Nor, Xnor are conveniences over the base gates.
func (c *Circuit) Nand(a, b Signal) Signal { return c.Not(c.And(a, b)) }

// Nor returns NOT(a OR b).
func (c *Circuit) Nor(a, b Signal) Signal { return c.Not(c.Or(a, b)) }

// Xnor returns NOT(a XOR b).
func (c *Circuit) Xnor(a, b Signal) Signal { return c.Not(c.Xor(a, b)) }

// DFF adds a D flip-flop: on each clock edge, if reset is high the
// state clears to the init value false; otherwise if enable is high
// the state loads d. Pass Const1 as enable and Const0 as reset for a
// plain flop.
func (c *Circuit) DFF(d, enable, reset Signal) Signal {
	c.check(d, enable, reset)
	return c.node(kDFF, d, enable, reset)
}

// DFFInit is DFF with an explicit power-on/reset value.
func (c *Circuit) DFFInit(d, enable, reset Signal, init bool) Signal {
	s := c.DFF(d, enable, reset)
	if init {
		c.dffInit[s] = true
	}
	return s
}

// FeedbackDFF creates a flip-flop whose D input is left unconnected
// (tied to Const0) so that logic depending on the flop's output can be
// built first; wire the D input afterwards with ConnectD. This is how
// state-feedback structures (counters, LFSRs, FSM registers) are
// expressed.
func (c *Circuit) FeedbackDFF(enable, reset Signal, init bool) Signal {
	s := c.node(kDFF, Const0, enable, reset)
	if init {
		c.dffInit[s] = true
	}
	return s
}

// ConnectD wires the D input of a FeedbackDFF.
func (c *Circuit) ConnectD(dff, d Signal) {
	c.check(dff, d)
	if c.kinds[dff] != kDFF {
		panic(fmt.Sprintf("logic: ConnectD on non-DFF signal %d (%v)", dff, c.kinds[dff]))
	}
	if c.compiled {
		panic("logic: circuit modified after Compile")
	}
	c.fa[dff] = d
}

// ConnectEnable rewires the clock-enable input of a FeedbackDFF, for
// enables that depend on logic built after the flop.
func (c *Circuit) ConnectEnable(dff, enable Signal) {
	c.check(dff, enable)
	if c.kinds[dff] != kDFF {
		panic(fmt.Sprintf("logic: ConnectEnable on non-DFF signal %d (%v)", dff, c.kinds[dff]))
	}
	if c.compiled {
		panic("logic: circuit modified after Compile")
	}
	c.fb[dff] = enable
}

// RAM adds a words x width memory block with synchronous write and
// asynchronous read (the XC4000 CLB RAM discipline): the read output
// follows the address combinationally; on a clock edge with we high,
// din is stored at the addressed word. The address bus must be exactly
// wide enough (ceil(log2 words) bits). Returns the read-data bus.
func (c *Circuit) RAM(name string, words int, addr Bus, din Bus, we Signal) Bus {
	if words < 1 {
		panic("logic: RAM needs at least one word")
	}
	need := 0
	for w := words - 1; w > 0; w >>= 1 {
		need++
	}
	if need == 0 {
		need = 1
	}
	if len(addr) != need {
		panic(fmt.Sprintf("logic: RAM %q with %d words needs %d address bits, got %d",
			name, words, need, len(addr)))
	}
	c.check(addr...)
	c.check(din...)
	c.check(we)
	spec := &ramSpec{
		name:  name,
		addr:  append(Bus(nil), addr...),
		din:   append(Bus(nil), din...),
		we:    we,
		words: words,
		width: len(din),
	}
	idx := int32(len(c.rams))
	c.rams = append(c.rams, spec)
	out := make(Bus, len(din))
	for i := range out {
		s := c.node(kRAMOut, 0, 0, 0)
		c.ramIdx[s] = idx
		c.ramBit[s] = int32(i)
		out[i] = s
	}
	spec.out = out
	return out
}

// Inputs lists the declared input names in declaration order.
func (c *Circuit) Inputs() []string { return append([]string(nil), c.inputOrder...) }
