package logic

import (
	"cmp"
	"fmt"
	"slices"
)

// Lanes is the number of independent circuit instances one Sim
// evaluates per pass. Every signal's value is a 64-bit vector with one
// bit per lane, so each gate evaluation is a single word-wide bitwise
// operation over all instances — SIMD within a register, the standard
// trick for gate-level simulation.
const Lanes = 64

// Sim is a compiled, runnable circuit holding 64 independent instances
// (lanes) that share the circuit structure and the clock but have
// per-lane inputs, flip-flop state, and RAM contents. It evaluates all
// combinational logic by running the program Compile built, then
// commits flip-flops and RAM writes on each Step (one clock cycle).
//
// The scalar API (Set, Get, GetBus, ReadRAM, ...) is lane-transparent:
// writers broadcast to every lane and readers return lane 0, so code
// that wants a single circuit instance never sees the lanes. The
// *Lane variants address one instance; mixing the two styles is fine
// (e.g. broadcast the clocked control inputs, then diverge the lanes
// by seeding their state differently).
type Sim struct {
	c      *Circuit
	val    []uint64   // per node slot: 64 lanes; a flip-flop's slot holds its state
	alias  []lit      // per node: the slot and polarity that hold its settled value
	dffs   []int32    // nodes of kind kDFF, in index order
	prog   []op       // the gates and RAM reads left after folding, level by level
	runs   []opRun    // prog cut into single-kind runs, in evaluation order
	groups []dffGroup // flip-flops sharing a resolved (enable, reset)
	commit []dffOp    // per flip-flop, group by group
	next   []uint64   // per commit entry: the next state, while its group is active
	active []int32    // Step's scratch list of the groups active on this edge
	rams   []ramPort
	dirty  bool
	cycles uint64
}

// lit names a value as a slot of val and a polarity, as in an
// and-inverter graph: the value is val[l>>1], inverted when l&1 is
// set. Slot Const0 always holds zero, so lit0 and lit1 are the
// constants.
type lit int32

const (
	lit0 lit = 0
	lit1 lit = 1
)

func slotLit(slot int32) lit { return lit(slot) << 1 }
func (l lit) slot() int32    { return int32(l >> 1) }

// read returns the value a literal names, on all lanes.
func (s *Sim) read(l lit) uint64 { return s.val[l>>1] ^ -uint64(l&1) }

// opKind is the operation of one compiled op. Inversions never need an
// op of their own: they fold into ANDN, MUXN and the polarity of the
// literals that read a result.
type opKind uint8

const (
	opAnd  opKind = iota // a & b
	opAndN               // a &^ b
	opOr                 // a | b
	opXor                // a ^ b
	opMux                // c ? b : a
	opMuxN               // c ? ^b : a
	opRAM                // read RAM a into its output slots
	numOpKinds
)

// op is one compiled evaluation: val[dst] = f(val[a], val[b], val[c])
// for a gate, whose fan-ins are slots read plain (a = lo, b = hi,
// c = select for a mux). In an opRAM run, a is the RAM index and dst
// its first output slot.
type op struct{ dst, a, b, c int32 }

// opRun is a stretch prog[lo:hi] of ops of one kind, all on one level.
type opRun struct {
	k      opKind
	lo, hi int32
}

// dffGroup is a stretch commit[lo:hi] of flip-flops that share one
// resolved enable and one resolved reset.
type dffGroup struct {
	en, rst lit
	lo, hi  int32
}

// dffOp is one flip-flop's clock-edge update: q takes d where the
// group's enable is set, then init where its reset is set.
type dffOp struct {
	q    int32
	d    lit
	init uint64
}

// ramPort is one RAM block as the simulator runs it. Its read is
// lane-incremental: out keeps each lane's last read, and a settle
// recomputes only the lanes whose address moved since then or whose
// contents were written (stale).
type ramPort struct {
	mem   []uint64 // lane vector per (word, bit), index word*width+bit
	dec   []uint64 // per word: the lanes whose address is that word
	out   []uint64 // the read outputs' slots of val, one per data bit
	last  []uint64 // per address bit: its lane vector at the last read
	addr  []lit
	din   []lit
	we    lit
	stale uint64 // lanes whose contents changed since the last read
}

// laneMask broadcasts a bool to all 64 lanes.
func laneMask(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// laneBit returns the single-lane mask for lane, checking range.
func laneBit(lane int) uint64 {
	if lane < 0 || lane >= Lanes {
		panic(fmt.Sprintf("logic: lane %d out of range [0,%d)", lane, Lanes))
	}
	return 1 << uint(lane)
}

// Compile optimizes the circuit into a flat program and returns a
// simulator. It fails if the combinational logic contains a cycle.
//
// Walking the nodes in topological order, Compile resolves each one to
// a literal: a slot holding its value and a polarity. A NOT is its
// input's literal inverted and costs no op; a gate with a constant or
// repeated input folds to a constant, an input or a simpler gate; and
// gates with equal kind and resolved fan-ins share one op. Every op
// gets a level, one past the deepest slot it reads (constants, inputs
// and flip-flops are level 0), and a RAM read the level one past its
// deepest address bit. The program lists the ops level by level and
// groups each level by kind, so settle runs one tight loop per stretch
// of same-kind ops. Ops of one level never read each other, so the
// grouping cannot change any value.
func (c *Circuit) Compile() (*Sim, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	n := len(c.kinds)
	f := newFolder(c)
	ramSeen := make([]bool, len(c.rams))
	for _, v := range order {
		a, b, sel := f.alias[c.fa[v]], f.alias[c.fb[v]], f.alias[c.fc[v]]
		switch c.kinds[v] {
		case kConst:
			f.alias[v] = lit0
			if Signal(v) == Const1 {
				f.alias[v] = lit1
			}
		case kInput, kDFF:
			f.alias[v] = slotLit(v)
		case kRAMOut:
			f.alias[v] = slotLit(v)
			if ri := c.ramIdx[v]; !ramSeen[ri] {
				ramSeen[ri] = true
				f.ramRead(ri)
			}
		case kNot:
			f.alias[v] = a ^ 1
		case kAnd:
			f.alias[v] = f.and(v, a, b)
		case kOr:
			f.alias[v] = f.or(v, a, b)
		case kXor:
			f.alias[v] = f.xor(v, a, b)
		case kMux:
			f.alias[v] = f.mux(v, sel, a, b)
		}
	}

	// Bucket sort the ops by (level, kind), keeping walk order within
	// a bucket: bucket b fills prog[start[b]:start[b+1]].
	maxLevel := int32(0)
	for _, o := range f.ops {
		maxLevel = max(maxLevel, f.level[o.dst])
	}
	bucket := func(j int) int { return int(f.level[f.ops[j].dst])*int(numOpKinds) + int(f.kinds[j]) }
	start := make([]int32, (int(maxLevel)+1)*int(numOpKinds)+1)
	for j := range f.ops {
		start[bucket(j)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	prog := make([]op, len(f.ops))
	fill := slices.Clone(start)
	for j, o := range f.ops {
		b := bucket(j)
		prog[fill[b]] = o
		fill[b]++
	}
	var runs []opRun
	for b := 0; b+1 < len(start); b++ {
		if start[b] < start[b+1] {
			runs = append(runs, opRun{k: opKind(b % int(numOpKinds)), lo: start[b], hi: start[b+1]})
		}
	}

	s := &Sim{
		c:     c,
		val:   make([]uint64, n),
		alias: f.alias,
		prog:  prog,
		runs:  runs,
		dirty: true,
	}
	// Flip-flops sharing an enable and a reset commit as one group; the
	// stable sort keeps index order within a group.
	for i, k := range c.kinds {
		if k == kDFF {
			s.dffs = append(s.dffs, int32(i))
		}
	}
	ctl := func(q int32) (lit, lit) { return f.alias[c.fb[q]], f.alias[c.fc[q]] }
	byGroup := slices.Clone(s.dffs)
	slices.SortStableFunc(byGroup, func(p, q int32) int {
		ep, rp := ctl(p)
		eq, rq := ctl(q)
		return cmp.Or(cmp.Compare(ep, eq), cmp.Compare(rp, rq))
	})
	s.commit = make([]dffOp, len(byGroup))
	for k, q := range byGroup {
		en, rst := ctl(q)
		if g := len(s.groups) - 1; g < 0 || s.groups[g].en != en || s.groups[g].rst != rst {
			s.groups = append(s.groups, dffGroup{en: en, rst: rst, lo: int32(k)})
		}
		s.groups[len(s.groups)-1].hi = int32(k) + 1
		init := laneMask(c.dffInit[Signal(q)])
		s.commit[k] = dffOp{q: q, d: f.alias[c.fa[q]], init: init}
		s.val[q] = init
	}
	s.next = make([]uint64, len(s.commit))
	s.active = make([]int32, len(s.groups))

	s.rams = make([]ramPort, len(c.rams))
	resolve := func(b Bus) []lit {
		ls := make([]lit, len(b))
		for i, sig := range b {
			ls[i] = f.alias[sig]
		}
		return ls
	}
	for ri, r := range c.rams {
		p := &s.rams[ri]
		p.mem = make([]uint64, r.words*r.width)
		p.dec = make([]uint64, r.words)
		p.dec[0] = ^uint64(0) // every lane's address starts at 0, as last says
		p.last = make([]uint64, len(r.addr))
		p.addr, p.din, p.we = resolve(r.addr), resolve(r.din), f.alias[r.we]
		if r.width > 0 {
			// RAM allocates its output nodes consecutively.
			first := int(r.out[0])
			p.out = s.val[first : first+r.width : first+r.width]
		}
		p.stale = ^uint64(0)
	}
	c.compiled = true
	return s, nil
}

// topoOrder lists the nodes in a topological order of the
// combinational edges (Kahn's algorithm over compressed fan-out rows),
// or fails on a combinational cycle.
func (c *Circuit) topoOrder() ([]int32, error) {
	n := len(c.kinds)
	// The consumers of node v are succ[first[v]:first[v+1]].
	first := make([]int32, n+1)
	eachFanin := func(i int, f func(Signal)) {
		switch c.kinds[i] {
		case kNot:
			f(c.fa[i])
		case kAnd, kOr, kXor:
			f(c.fa[i])
			f(c.fb[i])
		case kMux:
			f(c.fa[i])
			f(c.fb[i])
			f(c.fc[i])
		case kRAMOut:
			for _, a := range c.rams[c.ramIdx[i]].addr {
				f(a)
			}
		case kConst, kInput, kDFF:
			// Sources for combinational evaluation.
		}
	}
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		eachFanin(i, func(a Signal) {
			first[a+1]++
			indeg[i]++
		})
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	succ := make([]int32, first[n])
	fill := slices.Clone(first[:n])
	for i := 0; i < n; i++ {
		eachFanin(i, func(a Signal) {
			succ[fill[a]] = int32(i)
			fill[a]++
		})
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range succ[first[v]:first[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("logic: combinational cycle among %d nodes", n-len(queue))
	}
	return queue, nil
}

// folder resolves nodes to literals for Compile and emits the ops that
// remain, one per distinct (kind, fan-in slots).
type folder struct {
	c     *Circuit
	alias []lit
	level []int32  // per slot: its evaluation level, 0 for sources
	ops   []op     // in emission order; dst names the slot written
	kinds []opKind // per op
	table []int32  // open-addressed hash of the gate ops: op index+1, 0 empty
}

func newFolder(c *Circuit) *folder {
	n := len(c.kinds)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return &folder{
		c:     c,
		alias: make([]lit, n),
		level: make([]int32, n),
		ops:   make([]op, 0, n),
		kinds: make([]opKind, 0, n),
		table: make([]int32, size),
	}
}

// gate returns the literal of the op k over slots a, b, c, emitting it
// into slot dst unless an equal op already exists.
func (f *folder) gate(dst int32, k opKind, a, b, c int32) lit {
	h := uint32(k)*0x9E3779B1 ^ uint32(a)
	h = (h*0x85EBCA77 ^ uint32(b)) * 0xC2B2AE3D
	h = (h ^ uint32(c)) * 0x27D4EB2F
	mask := uint32(len(f.table) - 1)
	for h = (h ^ h>>15) & mask; f.table[h] != 0; h = (h + 1) & mask {
		j := f.table[h] - 1
		if o := f.ops[j]; f.kinds[j] == k && o.a == a && o.b == b && o.c == c {
			return slotLit(o.dst)
		}
	}
	f.table[h] = int32(len(f.ops)) + 1
	f.ops = append(f.ops, op{dst: dst, a: a, b: b, c: c})
	f.kinds = append(f.kinds, k)
	f.level[dst] = 1 + max(f.level[a], f.level[b], f.level[c])
	return slotLit(dst)
}

// and folds x & y into slot dst. The literals are sorted, so the
// constants come first and a commutative op has one form.
func (f *folder) and(dst int32, x, y lit) lit {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == lit0 || x == y^1:
		return lit0
	case x == lit1:
		return y
	case x == y:
		return x
	}
	xi, yi := x&1 != 0, y&1 != 0
	switch {
	case !xi && !yi:
		return f.gate(dst, opAnd, x.slot(), y.slot(), 0)
	case xi && yi: // ^x & ^y = ^(x | y)
		return f.gate(dst, opOr, x.slot(), y.slot(), 0) ^ 1
	case yi:
		return f.gate(dst, opAndN, x.slot(), y.slot(), 0)
	default:
		return f.gate(dst, opAndN, y.slot(), x.slot(), 0)
	}
}

// or folds x | y into slot dst, by De Morgan.
func (f *folder) or(dst int32, x, y lit) lit { return f.and(dst, x^1, y^1) ^ 1 }

// xor folds x ^ y into slot dst: the polarities cancel into the result.
func (f *folder) xor(dst int32, x, y lit) lit {
	inv := (x ^ y) & 1
	x, y = x&^1, y&^1
	if x > y {
		x, y = y, x
	}
	switch {
	case x == y:
		return lit0 ^ inv
	case x == lit0:
		return y ^ inv
	}
	return f.gate(dst, opXor, x.slot(), y.slot(), 0) ^ inv
}

// mux folds sel ? hi : lo into slot dst. An inverted select swaps the
// data inputs; a constant data input, or one sharing the select's
// slot, leaves an AND or an OR; complementary data inputs leave an
// XOR.
func (f *folder) mux(dst int32, sel, lo, hi lit) lit {
	if sel&1 != 0 {
		sel, lo, hi = sel^1, hi, lo
	}
	switch {
	case sel == lit0:
		return lo
	case lo == hi:
		return lo
	case lo == hi^1: // sel ? ^lo : lo
		return f.xor(dst, lo, sel)
	case hi == lit0 || hi == sel^1: // ^sel & lo
		return f.and(dst, sel^1, lo)
	case hi == lit1 || hi == sel: // sel | lo
		return f.or(dst, sel, lo)
	case lo == lit0 || lo == sel: // sel & hi
		return f.and(dst, sel, hi)
	case lo == lit1 || lo == sel^1: // ^sel | hi
		return f.or(dst, sel^1, hi)
	}
	// Equal polarities leave a MUX; unequal ones a MUXN, which inverts
	// hi. Either result is inverted when lo is.
	k := opMux
	if (lo^hi)&1 != 0 {
		k = opMuxN
	}
	return f.gate(dst, k, lo.slot(), hi.slot(), sel.slot()) ^ lo&1
}

// ramRead emits RAM ri's read, one level past its deepest address bit;
// its output slots take that level.
func (f *folder) ramRead(ri int32) {
	r := f.c.rams[ri]
	lv := int32(0)
	for _, a := range r.addr {
		lv = max(lv, f.level[f.alias[a].slot()])
	}
	for _, o := range r.out {
		f.level[o] = lv + 1
	}
	f.ops = append(f.ops, op{dst: int32(r.out[0]), a: ri})
	f.kinds = append(f.kinds, opRAM)
}

// MustCompile is Compile that panics on error, for hand-built circuits
// known to be acyclic.
func (c *Circuit) MustCompile() *Sim {
	s, err := c.Compile()
	if err != nil {
		panic(err)
	}
	return s
}

// Set drives a primary input on all lanes. The value holds until
// changed.
func (s *Sim) Set(in Signal, v bool) {
	s.setLanes(in, laneMask(v), ^uint64(0))
}

// SetLane drives a primary input on one lane only.
func (s *Sim) SetLane(in Signal, lane int, v bool) {
	s.setLanes(in, laneMask(v), laneBit(lane))
}

// setLanes writes v into the lanes selected by mask.
func (s *Sim) setLanes(in Signal, v, mask uint64) {
	if s.c.kinds[in] != kInput {
		panic(fmt.Sprintf("logic: Set on non-input signal %d (%v)", in, s.c.kinds[in]))
	}
	nv := s.val[in]&^mask | v&mask
	if s.val[in] != nv {
		s.val[in] = nv
		s.dirty = true
	}
}

// SetByName drives a named input on all lanes.
func (s *Sim) SetByName(name string, v bool) {
	s.Set(s.inputByName(name), v)
}

// SetInputLane drives a named input on one lane only.
func (s *Sim) SetInputLane(name string, lane int, v bool) {
	s.SetLane(s.inputByName(name), lane, v)
}

func (s *Sim) inputByName(name string) Signal {
	in, ok := s.c.inputs[name]
	if !ok {
		panic(fmt.Sprintf("logic: unknown input %q", name))
	}
	return in
}

// SetBus drives each bit of a bus of inputs from the value's bits, on
// all lanes.
func (s *Sim) SetBus(b Bus, v uint64) {
	for i, sig := range b {
		s.Set(sig, v>>uint(i)&1 != 0)
	}
}

// SetBusLane drives each bit of a bus of inputs on one lane only.
func (s *Sim) SetBusLane(b Bus, lane int, v uint64) {
	for i, sig := range b {
		s.SetLane(sig, lane, v>>uint(i)&1 != 0)
	}
}

// settle evaluates all combinational logic, all 64 lanes per
// operation, by running the compiled program one single-kind stretch
// at a time. Flip-flops need no loading: their slots hold their state.
//
//leo:hotpath
func (s *Sim) settle() {
	if !s.dirty {
		return
	}
	val := s.val
	for _, r := range s.runs {
		ops := s.prog[r.lo:r.hi]
		switch r.k {
		case opAnd:
			for _, o := range ops {
				val[o.dst] = val[o.a] & val[o.b]
			}
		case opAndN:
			for _, o := range ops {
				val[o.dst] = val[o.a] &^ val[o.b]
			}
		case opOr:
			for _, o := range ops {
				val[o.dst] = val[o.a] | val[o.b]
			}
		case opXor:
			for _, o := range ops {
				val[o.dst] = val[o.a] ^ val[o.b]
			}
		case opMux:
			for _, o := range ops {
				sel := val[o.c]
				val[o.dst] = val[o.b]&sel | val[o.a]&^sel
			}
		case opMuxN:
			for _, o := range ops {
				sel := val[o.c]
				val[o.dst] = sel&^val[o.b] | val[o.a]&^sel
			}
		case opRAM:
			for _, o := range ops {
				s.ramRead(int(o.a))
			}
		}
	}
	s.dirty = false
}

// ramRead settles one RAM's read outputs, lane-incrementally: only the
// lanes whose address moved or whose contents were written since the
// last read (delta) are cleared, and one pass ORs in the rows of the
// words those lanes address. The outputs of every other lane still
// hold their word, so a read with no such lane costs nothing more.
//
//leo:hotpath
func (s *Sim) ramRead(ri int) {
	r := &s.rams[ri]
	var moved uint64
	for bi, a := range r.addr {
		v := s.read(a)
		moved |= v ^ r.last[bi]
		r.last[bi] = v
	}
	delta := moved | r.stale
	if delta == 0 {
		return
	}
	r.stale = 0
	if moved != 0 {
		r.decode()
	}
	out := r.out
	for b := range out {
		out[b] &^= delta
	}
	width := len(out)
	for w, d := range r.dec {
		m := d & delta
		if m == 0 {
			continue
		}
		row := r.mem[w*width : w*width+width]
		for b, x := range row {
			out[b] |= m & x
		}
	}
}

// decode rebuilds the per-word lane address-decode masks from the
// address lane vectors of the last read: dec[w] has a lane bit set
// exactly when that lane's address equals w. A lane addressing past
// the last word matches no mask, so it reads zero and its writes are
// dropped — the same out-of-range semantics as a one-lane simulator.
// The masks serve reads during settle and writes at the clock edge.
// Each address bit splits every mask decoded so far in two, so a
// decode costs about two word ops per word.
//
//leo:hotpath
func (r *ramPort) decode() {
	dec := r.dec
	dec[0] = ^uint64(0)
	for bi, v := range r.last {
		half := 1 << uint(bi)
		for w := 0; w < half && w < len(dec); w++ {
			if hi := w + half; hi < len(dec) {
				dec[hi] = dec[w] & v
			}
			dec[w] &^= v
		}
	}
}

// Get returns the settled value of any signal on lane 0.
func (s *Sim) Get(sig Signal) bool { return s.GetLane(sig, 0) }

// GetLane returns the settled value of any signal on one lane.
func (s *Sim) GetLane(sig Signal, lane int) bool {
	s.settle()
	return s.read(s.alias[sig])&laneBit(lane) != 0
}

// GetBus returns the settled value of a bus (LSB first) on lane 0.
func (s *Sim) GetBus(b Bus) uint64 { return s.GetBusLane(b, 0) }

// GetBusLane returns the settled value of a bus on one lane.
func (s *Sim) GetBusLane(b Bus, lane int) uint64 {
	s.settle()
	bit := laneBit(lane)
	var v uint64
	for i, sig := range b {
		if s.read(s.alias[sig])&bit != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// BusEqMask returns a 64-lane mask with bit l set exactly when the
// settled bus reads v on lane l. It is the all-lanes form of
// GetBusLane(b, l) == v at the cost of one word op per bus bit instead
// of one bus extraction per lane — the primitive a lane-packed driver
// uses to detect which lanes have reached a barrier condition. Bits of
// v beyond the bus width make the comparison unsatisfiable.
//
//leo:hotpath
func (s *Sim) BusEqMask(b Bus, v uint64) uint64 {
	if len(b) < 64 && v>>uint(len(b)) != 0 {
		return 0
	}
	s.settle()
	m := ^uint64(0)
	for i, sig := range b {
		x := s.read(s.alias[sig])
		if v>>uint(i)&1 != 0 {
			m &= x
		} else {
			m &^= x
		}
	}
	return m
}

// GetByName returns the settled value of a named output on lane 0.
func (s *Sim) GetByName(name string) bool { return s.OutLane(name, 0) }

// OutLane returns the settled value of a named output on one lane.
func (s *Sim) OutLane(name string, lane int) bool {
	sig, ok := s.c.outputs[name]
	if !ok {
		panic(fmt.Sprintf("logic: unknown output %q", name))
	}
	return s.GetLane(sig, lane)
}

// Step advances one clock cycle on all lanes: settle combinational
// logic, then commit every flip-flop and RAM write simultaneously.
//
//leo:hotpath
func (s *Sim) Step() {
	s.settle()
	val := s.val
	// Flip-flop next states, per lane: enable loads d, sync reset wins
	// over enable, other lanes hold. A group whose enable and reset are
	// low on every lane holds as a whole and is skipped.
	na := 0
	for gi, g := range s.groups {
		en, rst := s.read(g.en), s.read(g.rst)
		if en|rst == 0 {
			continue
		}
		for k := g.lo; k < g.hi; k++ {
			f := &s.commit[k]
			st := val[f.q]&^en | s.read(f.d)&en
			s.next[k] = st&^rst | f.init&rst
		}
		s.active[na] = int32(gi)
		na++
	}
	// RAM writes use the pre-edge address and data, flip-flop outputs
	// included; settle left every RAM's decode masks matching that
	// address. The written lanes must be read afresh.
	for ri := range s.rams {
		r := &s.rams[ri]
		we := s.read(r.we)
		if we == 0 {
			continue
		}
		r.stale |= we
		width := len(r.din)
		for w, d := range r.dec {
			m := d & we
			if m == 0 {
				continue
			}
			row := r.mem[w*width : w*width+width]
			for b, x := range r.din {
				row[b] = row[b]&^m | s.read(x)&m
			}
		}
	}
	// Only now, with every pre-edge value consumed, do the flip-flops
	// take their next states.
	for _, gi := range s.active[:na] {
		g := s.groups[gi]
		for k := g.lo; k < g.hi; k++ {
			val[s.commit[k].q] = s.next[k]
		}
	}
	s.cycles++
	s.dirty = true
}

// StepN advances n clock cycles.
func (s *Sim) StepN(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunUntil steps until the predicate is true after a step, up to max
// cycles; it returns the number of steps taken and whether the
// predicate fired.
//
//leo:allow ctx bounded by the max argument; cancellable runs go through gapcirc.Driver + engine.Run
func (s *Sim) RunUntil(pred func() bool, max int) (int, bool) {
	for i := 1; i <= max; i++ {
		s.Step()
		if pred() {
			return i, true
		}
	}
	return max, false
}

// Cycles returns the number of clock cycles executed.
func (s *Sim) Cycles() uint64 { return s.cycles }

// ramByName resolves a RAM index by name.
func (s *Sim) ramByName(name string) int {
	for ri, r := range s.c.rams {
		if r.name == name {
			return ri
		}
	}
	panic(fmt.Sprintf("logic: unknown RAM %q", name))
}

// LoadRAM initializes a RAM's contents on all lanes (word-by-word, low
// bits of each value), for testbenches.
func (s *Sim) LoadRAM(name string, words []uint64) {
	ri := s.ramByName(name)
	r := s.c.rams[ri]
	if len(words) > r.words {
		panic(fmt.Sprintf("logic: LoadRAM %q: %d words > capacity %d", name, len(words), r.words))
	}
	mem := s.rams[ri].mem
	for w, v := range words {
		for bit := 0; bit < r.width; bit++ {
			mem[w*r.width+bit] = laneMask(v>>uint(bit)&1 != 0)
		}
	}
	s.rams[ri].stale = ^uint64(0)
	s.dirty = true
}

// FlipRAMBit inverts one stored bit of a named RAM on every lane — a
// single-event upset, for fault-injection tests.
func (s *Sim) FlipRAMBit(name string, word, bit int) {
	ri := s.ramByName(name)
	r := s.c.rams[ri]
	if word < 0 || word >= r.words || bit < 0 || bit >= r.width {
		panic(fmt.Sprintf("logic: FlipRAMBit(%q, %d, %d) out of range", name, word, bit))
	}
	s.rams[ri].mem[word*r.width+bit] ^= ^uint64(0)
	s.rams[ri].stale = ^uint64(0)
	s.dirty = true
}

// FlipDFF inverts a flip-flop's stored state on every lane — a
// register upset, for fault-injection tests.
func (s *Sim) FlipDFF(sig Signal) {
	if s.c.kinds[sig] != kDFF {
		panic(fmt.Sprintf("logic: FlipDFF on non-DFF signal %d", sig))
	}
	s.val[sig] ^= ^uint64(0)
	s.dirty = true
}

// SetDFFLane forces a flip-flop's stored state on one lane — how a
// lane-packed batch gives each instance its own seed or starting
// state before the clocks start.
func (s *Sim) SetDFFLane(sig Signal, lane int, v bool) {
	if s.c.kinds[sig] != kDFF {
		panic(fmt.Sprintf("logic: SetDFFLane on non-DFF signal %d", sig))
	}
	bit := laneBit(lane)
	nv := s.val[sig]&^bit | laneMask(v)&bit
	if s.val[sig] != nv {
		s.val[sig] = nv
		s.dirty = true
	}
}

// ReadRAM returns a RAM word's contents (low bits) on lane 0, for
// testbenches.
func (s *Sim) ReadRAM(name string, word int) uint64 {
	return s.ReadRAMLane(name, word, 0)
}

// ReadRAMLane returns a RAM word's contents on one lane.
func (s *Sim) ReadRAMLane(name string, word, lane int) uint64 {
	ri := s.ramByName(name)
	r := s.c.rams[ri]
	if word < 0 || word >= r.words {
		panic(fmt.Sprintf("logic: ReadRAM(%q, %d) out of range", name, word))
	}
	bit := laneBit(lane)
	var v uint64
	for b := 0; b < r.width && b < 64; b++ {
		if s.rams[ri].mem[word*r.width+b]&bit != 0 {
			v |= 1 << uint(b)
		}
	}
	return v
}

// WriteRAMLane overwrites a RAM word's contents (low bits of v) on one
// lane, leaving every other lane's copy untouched — the insert half of
// the cross-lane migration pair whose extract half is ReadRAMLane.
// Like LoadRAM it bypasses the write port, so use it only between
// Steps, at points where the circuit is not mid-write.
//
//leo:hotpath
func (s *Sim) WriteRAMLane(name string, word, lane int, v uint64) {
	ri := s.ramByName(name)
	r := s.c.rams[ri]
	if word < 0 || word >= r.words {
		panic(fmt.Sprintf("logic: WriteRAMLane(%q, %d) out of range", name, word))
	}
	bit := laneBit(lane)
	mem := s.rams[ri].mem
	base := word * r.width
	for b := 0; b < r.width && b < 64; b++ {
		mem[base+b] = mem[base+b]&^bit | laneMask(v>>uint(b)&1 != 0)&bit
	}
	s.rams[ri].stale |= bit
	s.dirty = true
}

// Stats summarizes a circuit's composition for reports and the FPGA
// mapper.
type Stats struct {
	Inputs, Outputs int
	Gates           int // NOT/AND/OR/XOR/MUX
	ByKind          map[string]int
	DFFs            int
	RAMBits         int
	GateEquivalents int
}

// Stats computes composition statistics. Gate equivalents use the
// classic 2-input-NAND convention: NOT=1, AND/OR=1, XOR=3, MUX=3,
// DFF=6, RAM bit=4.
func (c *Circuit) Stats() Stats {
	st := Stats{ByKind: map[string]int{}}
	st.Inputs = len(c.inputs)
	st.Outputs = len(c.outputs)
	for _, k := range c.kinds {
		st.ByKind[k.String()]++
		switch k {
		case kNot, kAnd, kOr:
			st.Gates++
			st.GateEquivalents++
		case kXor, kMux:
			st.Gates++
			st.GateEquivalents += 3
		case kDFF:
			st.DFFs++
			st.GateEquivalents += 6
		}
	}
	for _, r := range c.rams {
		st.RAMBits += r.words * r.width
	}
	st.GateEquivalents += st.RAMBits * 4
	return st
}

// String renders the gate, flip-flop, RAM-bit and gate-equivalent
// counts on one line; the per-kind breakdown is left to ByKind.
func (st Stats) String() string {
	return fmt.Sprintf("gates=%d dffs=%d rambits=%d gate-equivalents=%d",
		st.Gates, st.DFFs, st.RAMBits, st.GateEquivalents)
}
