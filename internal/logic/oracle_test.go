package logic

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refSim is the interpretive simulator the compiled program replaced,
// kept as the oracle for it: it walks the nodes in topological order
// and switches on each node's kind, and it decodes every RAM address
// bit by bit on every settle. It borrows the values, flip-flop state
// and RAM contents of a Sim that is never settled by its own program.
type refSim struct {
	s     *Sim
	order []Signal
	dec   [][]uint64
	decOK []bool
}

// newRefSim wraps s, ordering the nodes by Kahn's algorithm the way the
// interpretive Compile did.
func newRefSim(s *Sim) *refSim {
	c := s.c
	n := len(c.kinds)
	adj := make([][]int32, n)
	indeg := make([]int, n)
	addEdge := func(from Signal, to int) {
		adj[from] = append(adj[from], int32(to))
		indeg[to]++
	}
	for i := 0; i < n; i++ {
		switch c.kinds[i] {
		case kNot:
			addEdge(c.fa[i], i)
		case kAnd, kOr, kXor:
			addEdge(c.fa[i], i)
			addEdge(c.fb[i], i)
		case kMux:
			addEdge(c.fa[i], i)
			addEdge(c.fb[i], i)
			addEdge(c.fc[i], i)
		case kRAMOut:
			for _, a := range c.rams[c.ramIdx[i]].addr {
				addEdge(a, i)
			}
		}
	}
	r := &refSim{s: s, dec: make([][]uint64, len(c.rams)), decOK: make([]bool, len(c.rams))}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		r.order = append(r.order, Signal(v))
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	for i, ram := range c.rams {
		r.dec[i] = make([]uint64, ram.words)
	}
	return r
}

// settleReference evaluates all combinational logic one node at a
// time, in topological order.
func (r *refSim) settleReference() {
	s, c := r.s, r.s.c
	for i := range r.decOK {
		r.decOK[i] = false
	}
	for _, sig := range r.order {
		i := int(sig)
		switch c.kinds[i] {
		case kConst:
			s.val[i] = laneMask(sig == Const1)
		case kInput:
			// retained from Set
		case kDFF:
			s.val[i] = s.state[i]
		case kNot:
			s.val[i] = ^s.val[c.fa[i]]
		case kAnd:
			s.val[i] = s.val[c.fa[i]] & s.val[c.fb[i]]
		case kOr:
			s.val[i] = s.val[c.fa[i]] | s.val[c.fb[i]]
		case kXor:
			s.val[i] = s.val[c.fa[i]] ^ s.val[c.fb[i]]
		case kMux:
			sel := s.val[c.fc[i]]
			s.val[i] = s.val[c.fb[i]]&sel | s.val[c.fa[i]]&^sel
		case kRAMOut:
			ri := int(c.ramIdx[i])
			if !r.decOK[ri] {
				r.ramDecode(ri)
			}
			ram := c.rams[ri]
			bit := int(c.ramBit[i])
			var v uint64
			for w := 0; w < ram.words; w++ {
				v |= r.dec[ri][w] & s.mems[ri][w*ram.width+bit]
			}
			s.val[i] = v
		}
	}
}

// ramDecode builds each word's lane mask by testing every address bit.
func (r *refSim) ramDecode(ri int) {
	s := r.s
	ram := s.c.rams[ri]
	for w := range r.dec[ri] {
		m := ^uint64(0)
		for bi, a := range ram.addr {
			if uint(w)>>uint(bi)&1 != 0 {
				m &= s.val[a]
			} else {
				m &^= s.val[a]
			}
		}
		r.dec[ri][w] = m
	}
	r.decOK[ri] = true
}

// stepReference is one clock cycle of the interpretive simulator.
func (r *refSim) stepReference() {
	r.settleReference()
	s, c := r.s, r.s.c
	for _, di := range s.dffs {
		i := int(di)
		en := s.val[c.fb[i]]
		rst := s.val[c.fc[i]]
		st := s.state[i]
		st = st&^en | s.val[c.fa[i]]&en
		st = st&^rst | laneMask(c.dffInit[Signal(i)])&rst
		s.state[i] = st
	}
	for ri, ram := range c.rams {
		we := s.val[ram.we]
		if we == 0 {
			continue
		}
		if !r.decOK[ri] {
			r.ramDecode(ri)
		}
		for w := 0; w < ram.words; w++ {
			m := r.dec[ri][w] & we
			if m == 0 {
				continue
			}
			base := w * ram.width
			for bit, d := range ram.din {
				s.mems[ri][base+bit] = s.mems[ri][base+bit]&^m | s.val[d]&m
			}
		}
	}
	s.cycles++
}

// OracleTwin runs one circuit on two simulators in lock step: Sim runs
// the compiled program, and a twin is settled and clocked only by the
// interpretive reference. It is exported to the external test package,
// which drives the gate-level GAP through it.
type OracleTwin struct {
	Sim  *Sim
	twin *Sim
	ref  *refSim
}

// NewOracleTwin compiles c twice and pairs the two simulators.
func NewOracleTwin(c *Circuit) (*OracleTwin, error) {
	s, err := c.Compile()
	if err != nil {
		return nil, err
	}
	twin, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return &OracleTwin{Sim: s, twin: twin, ref: newRefSim(twin)}, nil
}

// Do applies the same outside action (Set, WriteRAMLane, RestoreState,
// ...) to both simulators. Actions must not read settled values: that
// would settle the twin by the program under test.
func (o *OracleTwin) Do(f func(s *Sim)) {
	f(o.Sim)
	f(o.twin)
}

// Step clocks both simulators once.
func (o *OracleTwin) Step() {
	o.Sim.Step()
	o.ref.stepReference()
}

// Check settles both simulators and compares every node's lane vector,
// every flip-flop's state and every RAM bit.
func (o *OracleTwin) Check() error {
	o.Sim.settle()
	o.ref.settleReference()
	a, b := o.Sim, o.twin
	if a.cycles != b.cycles {
		return fmt.Errorf("cycles %d, oracle %d", a.cycles, b.cycles)
	}
	for i := range a.val {
		if a.val[i] != b.val[i] {
			return fmt.Errorf("node %d (%v) = %#x, oracle %#x", i, a.c.kinds[i], a.val[i], b.val[i])
		}
	}
	for _, i := range a.dffs {
		if a.state[i] != b.state[i] {
			return fmt.Errorf("flip-flop %d state %#x, oracle %#x", i, a.state[i], b.state[i])
		}
	}
	for ri := range a.mems {
		for k := range a.mems[ri] {
			if a.mems[ri][k] != b.mems[ri][k] {
				return fmt.Errorf("RAM %d bit vector %d = %#x, oracle %#x", ri, k, a.mems[ri][k], b.mems[ri][k])
			}
		}
	}
	return nil
}

// DFFs lists the circuit's flip-flop signals in node order.
func (o *OracleTwin) DFFs() []Signal {
	out := make([]Signal, len(o.Sim.dffs))
	for j, i := range o.Sim.dffs {
		out[j] = Signal(i)
	}
	return out
}

// randomNetlist builds an acyclic netlist from rng: inputs, feedback
// flip-flops wired to arbitrary nodes, and gates and RAMs whose fan-ins
// are any earlier node, constants included. RAM word counts are not
// always powers of two, so some addresses fall past the last word, and
// write enables and data come from the same logic the read addresses
// do, so reads and writes of one RAM share clock edges.
func randomNetlist(rng *rand.Rand, gates int) (*Circuit, []Signal) {
	c := New()
	pick := func() Signal { return Signal(rng.IntN(len(c.kinds))) }
	var ins []Signal
	for i := 0; i < 1+rng.IntN(5); i++ {
		ins = append(ins, c.Input(fmt.Sprintf("in%d", i)))
	}
	var dffs []Signal
	for i := 0; i < rng.IntN(6); i++ {
		dffs = append(dffs, c.FeedbackDFF(pick(), pick(), rng.IntN(2) == 0))
	}
	nRAM := 0
	for g := 0; g < gates; g++ {
		if rng.IntN(8) == 0 {
			words := 1 + rng.IntN(9)
			bits := 1
			for w := words - 1; w > 1; w >>= 1 {
				bits++
			}
			addr := make(Bus, bits)
			for i := range addr {
				addr[i] = pick()
			}
			din := make(Bus, 1+rng.IntN(4))
			for i := range din {
				din[i] = pick()
			}
			c.RAM(fmt.Sprintf("m%d", nRAM), words, addr, din, pick())
			nRAM++
			continue
		}
		k := kNot + kind(rng.IntN(int(kMux-kNot)+1))
		c.node(k, pick(), pick(), pick())
	}
	for _, d := range dffs {
		c.ConnectD(d, pick())
		c.ConnectEnable(d, pick())
	}
	return c, ins
}

// FuzzSettleMatchesOracle runs random netlists under random schedules
// of input changes, outside RAM and flip-flop writes and snapshot
// restores, and checks the compiled program against the interpretive
// oracle after every action and every clock cycle.
func FuzzSettleMatchesOracle(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed, uint8(8+seed*4), uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed uint64, gates, cycles uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(gates)<<8|uint64(cycles)))
		c, ins := randomNetlist(rng, int(gates))
		o, err := NewOracleTwin(c)
		if err != nil {
			t.Fatal(err)
		}
		rams := c.RAMs()
		dffs := o.DFFs()
		var saved *SimState
		for cyc := 0; cyc < int(cycles); cyc++ {
			for a := rng.IntN(3); a > 0; a-- {
				act := rng.IntN(8)
				if (act == 1 || act == 2 || act == 3) && len(rams) == 0 ||
					(act == 4 || act == 5) && len(dffs) == 0 {
					act = 0
				}
				lane := rng.IntN(Lanes)
				v := rng.Uint64()
				switch act {
				case 0:
					in, mask := ins[rng.IntN(len(ins))], rng.Uint64()
					o.Do(func(s *Sim) { s.setLanes(in, v, mask) })
				case 1:
					r := rams[rng.IntN(len(rams))]
					w := rng.IntN(r.Words)
					o.Do(func(s *Sim) { s.WriteRAMLane(r.Name, w, lane, v) })
				case 2:
					r := rams[rng.IntN(len(rams))]
					w, b := rng.IntN(r.Words), rng.IntN(r.Width)
					o.Do(func(s *Sim) { s.FlipRAMBit(r.Name, w, b) })
				case 3:
					r := rams[rng.IntN(len(rams))]
					words := make([]uint64, 1+rng.IntN(r.Words))
					for i := range words {
						words[i] = rng.Uint64()
					}
					o.Do(func(s *Sim) { s.LoadRAM(r.Name, words) })
				case 4:
					d := dffs[rng.IntN(len(dffs))]
					o.Do(func(s *Sim) { s.SetDFFLane(d, lane, v&1 != 0) })
				case 5:
					d := dffs[rng.IntN(len(dffs))]
					o.Do(func(s *Sim) { s.FlipDFF(d) })
				case 6:
					st := o.Sim.SnapshotState()
					saved = &st
				case 7:
					if saved != nil {
						o.Do(func(s *Sim) {
							if err := s.RestoreState(*saved); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
				if err := o.Check(); err != nil {
					t.Fatalf("cycle %d, after action %d: %v", cyc, act, err)
				}
			}
			o.Step()
			if err := o.Check(); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
	})
}
