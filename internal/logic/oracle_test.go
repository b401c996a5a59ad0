package logic

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refSim is the interpretive simulator the compiled program replaced,
// kept as the oracle for it: it walks the nodes in topological order
// and switches on each node's kind, decodes every RAM address bit by
// bit on every settle, and commits the flip-flops one by one. It uses
// none of Compile's folding, literals, groups or incremental reads:
// it borrows only the node slots (a flip-flop's slot holds its state)
// and RAM contents of a Sim that is never settled by its own program,
// and gives every node its own value.
type refSim struct {
	s     *Sim
	order []Signal
	dec   [][]uint64
	decOK []bool
	next  []uint64 // per flip-flop, in dffs order: its state after the edge
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
	r := &refSim{
		s:     s,
		dec:   make([][]uint64, len(c.rams)),
		decOK: make([]bool, len(c.rams)),
		next:  make([]uint64, len(s.dffs)),
	}
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
			// the slot holds the state
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
				v |= r.dec[ri][w] & s.rams[ri].mem[w*ram.width+bit]
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

// stepReference is one clock cycle of the interpretive simulator. The
// flip-flops take their next states only after the RAM writes, which
// may read flip-flop outputs as data or write enable.
func (r *refSim) stepReference() {
	r.settleReference()
	s, c := r.s, r.s.c
	for j, di := range s.dffs {
		i := int(di)
		en := s.val[c.fb[i]]
		rst := s.val[c.fc[i]]
		st := s.val[i]&^en | s.val[c.fa[i]]&en
		r.next[j] = st&^rst | laneMask(c.dffInit[Signal(i)])&rst
	}
	for ri, ram := range c.rams {
		we := s.val[ram.we]
		if we == 0 {
			continue
		}
		if !r.decOK[ri] {
			r.ramDecode(ri)
		}
		mem := s.rams[ri].mem
		for w := 0; w < ram.words; w++ {
			m := r.dec[ri][w] & we
			if m == 0 {
				continue
			}
			base := w * ram.width
			for bit, d := range ram.din {
				mem[base+bit] = mem[base+bit]&^m | s.val[d]&m
			}
		}
	}
	for j, di := range s.dffs {
		s.val[di] = r.next[j]
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
// read through its alias on the compiled side (flip-flop states
// included, as their slots hold them), and every RAM bit.
func (o *OracleTwin) Check() error {
	o.Sim.settle()
	o.ref.settleReference()
	a, b := o.Sim, o.twin
	if a.cycles != b.cycles {
		return fmt.Errorf("cycles %d, oracle %d", a.cycles, b.cycles)
	}
	for i := range a.alias {
		if got, want := a.read(a.alias[i]), b.val[i]; got != want {
			return fmt.Errorf("node %d (%v) = %#x, oracle %#x", i, a.c.kinds[i], got, want)
		}
	}
	for ri := range a.rams {
		for k, got := range a.rams[ri].mem {
			if want := b.rams[ri].mem[k]; got != want {
				return fmt.Errorf("RAM %d bit vector %d = %#x, oracle %#x", ri, k, got, want)
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

// Netlist shapes randomNetlist can add, one bit each, so that the seed
// corpus holds an entry aimed at each rewrite Compile makes.
const (
	shapeNotChains  = 1 << iota // chains of NOTs
	shapeDuplicates             // gates repeating an earlier gate's fan-ins, with its kind or another
	shapeConstNot               // constant fan-ins, and NOTs into every mux, flip-flop and RAM input
	shapeSharedCtl              // flip-flops sharing an enable or reset, plain or inverted
	shapeDFFLinks               // flip-flop outputs as flip-flop data, with a two-flop swap
	shapeDFFToRAM               // flip-flop outputs as RAM data and write enable
	shapeAll        = 1<<iota - 1
)

// randomNetlist builds an acyclic netlist from rng: inputs, feedback
// flip-flops wired to arbitrary nodes, and gates and RAMs whose fan-ins
// are any earlier node, constants included. RAM word counts are not
// always powers of two, so some addresses fall past the last word, and
// write enables and data come from the same logic the read addresses
// do, so reads and writes of one RAM share clock edges. The shape bits
// add the structures Compile folds, groups and orders.
func randomNetlist(rng *rand.Rand, gates int, shape uint8) (*Circuit, []Signal) {
	c := New()
	has := func(bit uint8) bool { return shape&bit != 0 }
	pick := func() Signal { return Signal(rng.IntN(len(c.kinds))) }
	fanin := func() Signal {
		if has(shapeConstNot) {
			switch rng.IntN(6) {
			case 0:
				return Signal(rng.IntN(2))
			case 1:
				return c.node(kNot, pick(), 0, 0)
			}
		}
		return pick()
	}
	var ins []Signal
	for i := 0; i < 1+rng.IntN(5); i++ {
		ins = append(ins, c.Input(fmt.Sprintf("in%d", i)))
	}
	nDFF := rng.IntN(6)
	if has(shapeSharedCtl | shapeDFFLinks | shapeDFFToRAM) {
		nDFF = 2 + rng.IntN(5)
	}
	var dffs []Signal
	for i := 0; i < nDFF; i++ {
		dffs = append(dffs, c.FeedbackDFF(pick(), pick(), rng.IntN(2) == 0))
	}
	fromDFF := func(f func() Signal) Signal {
		if has(shapeDFFToRAM) && rng.IntN(2) == 0 {
			return dffs[rng.IntN(len(dffs))]
		}
		return f()
	}
	nRAM := 0
	for g := 0; g < gates; g++ {
		switch {
		case rng.IntN(8) == 0:
			words := 1 + rng.IntN(9)
			bits := 1
			for w := words - 1; w > 1; w >>= 1 {
				bits++
			}
			addr := make(Bus, bits)
			for i := range addr {
				addr[i] = fanin()
			}
			din := make(Bus, 1+rng.IntN(4))
			for i := range din {
				din[i] = fromDFF(fanin)
			}
			c.RAM(fmt.Sprintf("m%d", nRAM), words, addr, din, fromDFF(fanin))
			nRAM++
		case has(shapeNotChains) && rng.IntN(6) == 0:
			x := pick()
			for n := 1 + rng.IntN(4); n > 0; n-- {
				x = c.node(kNot, x, 0, 0)
			}
		case has(shapeDuplicates) && rng.IntN(4) == 0:
			// Repeat an earlier gate, or give its fan-ins a gate of
			// another kind, which only the kind tells apart.
			v := pick()
			if k := c.kinds[v]; k >= kNot && k <= kMux {
				a, b := c.fa[v], c.fb[v]
				if k != kMux && rng.IntN(2) == 0 {
					a, b = b, a
				}
				if rng.IntN(2) == 0 {
					k = kNot + kind(rng.IntN(int(kMux-kNot)+1))
				}
				c.node(k, a, b, c.fc[v])
			}
		default:
			k := kNot + kind(rng.IntN(int(kMux-kNot)+1))
			c.node(k, fanin(), fanin(), fanin())
		}
	}
	for j, d := range dffs {
		c.ConnectD(d, fanin())
		c.ConnectEnable(d, fanin())
		if rng.IntN(3) == 0 {
			c.fc[d] = fanin()
		}
		if has(shapeSharedCtl) && j > 0 && rng.IntN(3) != 0 {
			p := dffs[rng.IntN(j)]
			en, rst := c.fb[p], c.fc[p]
			if rng.IntN(3) == 0 {
				en = c.node(kNot, en, 0, 0)
			}
			c.ConnectEnable(d, en)
			if rng.IntN(2) == 0 {
				c.fc[d] = rst
			}
		}
	}
	if has(shapeDFFLinks) {
		c.ConnectD(dffs[0], dffs[1])
		c.ConnectD(dffs[1], dffs[0])
		for j := 2; j < len(dffs); j++ {
			if rng.IntN(2) == 0 {
				c.ConnectD(dffs[j], dffs[rng.IntN(j)])
			}
		}
	}
	return c, ins
}

// FuzzSettleMatchesOracle runs random netlists under random schedules
// of input changes, outside RAM and flip-flop writes and snapshot
// restores, and checks the compiled program against the interpretive
// oracle after every action and every clock cycle.
func FuzzSettleMatchesOracle(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed, uint8(8+seed*4), uint8(40), uint8(shapeAll))
	}
	for bit := uint8(1); bit < shapeAll; bit <<= 1 {
		f.Add(uint64(100+bit), uint8(48), uint8(60), bit)
	}
	f.Add(uint64(99), uint8(48), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, gates, cycles, shape uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(gates)<<16|uint64(cycles)<<8|uint64(shape)))
		c, ins := randomNetlist(rng, int(gates), shape)
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
