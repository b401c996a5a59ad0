package logic

import "fmt"

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
	val    []uint64   // per node: 64 lanes
	state  []uint64   // DFF state, indexed by node
	dffs   []int32    // nodes of kind kDFF, in index order
	prog   []op       // combinational gates and RAM reads, level by level
	runs   []opRun    // prog cut into single-kind runs, in evaluation order
	commit []dffOp    // per flip-flop, in dffs order: the clock-edge update
	mems   [][]uint64 // per RAM: lane vector per (word, bit), index word*width+bit
	dec    [][]uint64 // per RAM: per-word lane address-decode masks
	acc    [][]uint64 // per RAM: lane vector per data bit, for the row-wise read
	dirty  bool
	cycles uint64
}

// op is one compiled evaluation: val[dst] = f(val[a], val[b], val[c])
// for a gate, with the fan-ins of the netlist node (a = lo, b = hi,
// c = select for a mux). In a kRAMOut run, a is the RAM index and the
// other fields are unused.
type op struct{ dst, a, b, c int32 }

// opRun is a stretch prog[lo:hi] of ops of one kind, all on one level.
type opRun struct {
	k      kind
	lo, hi int32
}

// dffOp is one flip-flop's clock-edge update: q takes d where en is
// set, then init where rst is set.
type dffOp struct {
	q, d, en, rst int32
	init          uint64
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

// Compile levelizes the circuit and returns a simulator. It fails if
// the combinational logic contains a cycle.
//
// The simulator runs a flat program rather than walking the netlist.
// Every node gets a level, the longest combinational path to it from a
// source (constant, input or flip-flop, all level 0), and a RAM gets
// the level of its read outputs, one past its deepest address bit.
// The program lists the gates and RAM reads level by level, and within
// a level groups them by kind, so settle runs one tight loop per
// stretch of same-kind ops. Nodes of one level never read each other,
// so the grouping cannot change any value.
func (c *Circuit) Compile() (*Sim, error) {
	n := len(c.kinds)
	// Fan-out edges in compressed rows: the consumers of node v are
	// succ[first[v]:first[v+1]].
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
	fill := append([]int32(nil), first[:n]...)
	for i := 0; i < n; i++ {
		eachFanin(i, func(a Signal) {
			succ[fill[a]] = int32(i)
			fill[a]++
		})
	}
	// Kahn's algorithm, relaxing each consumer's level as it goes.
	level := make([]int32, n)
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	maxLevel := int32(0)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range succ[first[v]:first[v+1]] {
			if level[v]+1 > level[w] {
				level[w] = level[v] + 1
			}
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
		if level[v] > maxLevel {
			maxLevel = level[v]
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("logic: combinational cycle among %d nodes", n-len(queue))
	}
	ramLevel := make([]int32, len(c.rams))
	for ri, r := range c.rams {
		for _, a := range r.addr {
			if level[a]+1 > ramLevel[ri] {
				ramLevel[ri] = level[a] + 1
			}
		}
		if ramLevel[ri] > maxLevel {
			maxLevel = ramLevel[ri]
		}
	}

	// Bucket sort the gates and RAM reads by (level, kind), keeping
	// index order within a bucket: bucket b fills prog[start[b]:start[b+1]].
	slot := func(lv int32, k kind) int { return int(lv)*int(kNumKinds) + int(k) }
	start := make([]int32, (int(maxLevel)+1)*int(kNumKinds)+1)
	for i, k := range c.kinds {
		if isGate(k) {
			start[slot(level[i], k)+1]++
		}
	}
	for ri := range c.rams {
		start[slot(ramLevel[ri], kRAMOut)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	prog := make([]op, start[len(start)-1])
	next := append([]int32(nil), start...)
	for i, k := range c.kinds {
		if isGate(k) {
			b := slot(level[i], k)
			prog[next[b]] = op{dst: int32(i), a: int32(c.fa[i]), b: int32(c.fb[i]), c: int32(c.fc[i])}
			next[b]++
		}
	}
	for ri := range c.rams {
		b := slot(ramLevel[ri], kRAMOut)
		prog[next[b]] = op{a: int32(ri)}
		next[b]++
	}
	var runs []opRun
	for b := 0; b+1 < len(start); b++ {
		if start[b] < start[b+1] {
			runs = append(runs, opRun{k: kind(b % int(kNumKinds)), lo: start[b], hi: start[b+1]})
		}
	}

	s := &Sim{
		c:     c,
		val:   make([]uint64, n),
		state: make([]uint64, n),
		prog:  prog,
		runs:  runs,
		dirty: true,
	}
	// The constants never change, and inputs keep the value Set gives
	// them, so neither appears in the program.
	s.val[Const1] = ^uint64(0)
	for i, k := range c.kinds {
		if k == kDFF {
			s.dffs = append(s.dffs, int32(i))
			init := laneMask(c.dffInit[Signal(i)])
			s.commit = append(s.commit, dffOp{
				q: int32(i), d: int32(c.fa[i]), en: int32(c.fb[i]), rst: int32(c.fc[i]), init: init,
			})
			s.state[i] = init
		}
	}
	s.mems = make([][]uint64, len(c.rams))
	s.dec = make([][]uint64, len(c.rams))
	s.acc = make([][]uint64, len(c.rams))
	for i, r := range c.rams {
		s.mems[i] = make([]uint64, r.words*r.width)
		s.dec[i] = make([]uint64, r.words)
		s.acc[i] = make([]uint64, r.width)
	}
	c.compiled = true
	return s, nil
}

// isGate reports whether a node kind is a combinational gate.
func isGate(k kind) bool {
	switch k {
	case kNot, kAnd, kOr, kXor, kMux:
		return true
	}
	return false
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
// operation: it loads the flip-flop outputs, then runs the compiled
// program one single-kind stretch at a time.
//
//leo:hotpath
func (s *Sim) settle() {
	if !s.dirty {
		return
	}
	val := s.val
	for _, i := range s.dffs {
		val[i] = s.state[i]
	}
	for _, r := range s.runs {
		ops := s.prog[r.lo:r.hi]
		switch r.k {
		case kNot:
			for _, o := range ops {
				val[o.dst] = ^val[o.a]
			}
		case kAnd:
			for _, o := range ops {
				val[o.dst] = val[o.a] & val[o.b]
			}
		case kOr:
			for _, o := range ops {
				val[o.dst] = val[o.a] | val[o.b]
			}
		case kXor:
			for _, o := range ops {
				val[o.dst] = val[o.a] ^ val[o.b]
			}
		case kMux:
			for _, o := range ops {
				sel := val[o.c]
				val[o.dst] = val[o.b]&sel | val[o.a]&^sel
			}
		case kRAMOut:
			for _, o := range ops {
				s.ramRead(int(o.a))
			}
		}
	}
	s.dirty = false
}

// ramRead settles one RAM's read outputs: it decodes the address, then
// one pass over the words ORs every addressed row into a per-bit
// accumulator, skipping the words no lane addresses, and scatters the
// accumulator into the output nodes.
//
//leo:hotpath
func (s *Sim) ramRead(ri int) {
	s.ramDecode(ri)
	acc := s.acc[ri]
	clear(acc)
	width := len(acc)
	mem := s.mems[ri]
	for w, d := range s.dec[ri] {
		if d == 0 {
			continue
		}
		row := mem[w*width : w*width+width]
		for b, x := range row {
			acc[b] |= d & x
		}
	}
	for b, o := range s.c.rams[ri].out {
		s.val[o] = acc[b]
	}
}

// ramDecode rebuilds the per-word lane address-decode masks of one
// RAM from the current address values: dec[w] has a lane bit set
// exactly when that lane's address equals w. A lane addressing past
// the last word matches no mask, so it reads zero and its writes are
// dropped — the same out-of-range semantics as
// a one-lane simulator. The masks are shared by every data bit of the
// RAM, for reads during settle and writes at the clock edge. Each
// address bit splits every mask decoded so far in two, so a decode
// costs about two word ops per word.
//
//leo:hotpath
func (s *Sim) ramDecode(ri int) {
	dec := s.dec[ri]
	dec[0] = ^uint64(0)
	for bi, a := range s.c.rams[ri].addr {
		v := s.val[a]
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
	return s.val[sig]&laneBit(lane) != 0
}

// GetBus returns the settled value of a bus (LSB first) on lane 0.
func (s *Sim) GetBus(b Bus) uint64 { return s.GetBusLane(b, 0) }

// GetBusLane returns the settled value of a bus on one lane.
func (s *Sim) GetBusLane(b Bus, lane int) uint64 {
	s.settle()
	bit := laneBit(lane)
	var v uint64
	for i, sig := range b {
		if s.val[sig]&bit != 0 {
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
		if v>>uint(i)&1 != 0 {
			m &= s.val[sig]
		} else {
			m &^= s.val[sig]
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
	val, state := s.val, s.state
	// DFF commit, per-lane: enable loads the input, sync reset wins
	// over enable, untouched lanes hold state.
	for _, f := range s.commit {
		en := val[f.en]
		rst := val[f.rst]
		st := state[f.q]
		st = st&^en | val[f.d]&en
		st = st&^rst | f.init&rst
		state[f.q] = st
	}
	// RAM writes use the pre-edge (settled) address and data; settle
	// left every RAM's decode masks matching that address.
	for ri, r := range s.c.rams {
		we := val[r.we]
		if we == 0 {
			continue
		}
		dec := s.dec[ri]
		mem := s.mems[ri]
		for w := 0; w < r.words; w++ {
			m := dec[w] & we
			if m == 0 {
				continue
			}
			base := w * r.width
			for bit, d := range r.din {
				mem[base+bit] = mem[base+bit]&^m | val[d]&m
			}
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
	for w, v := range words {
		for bit := 0; bit < r.width; bit++ {
			s.mems[ri][w*r.width+bit] = laneMask(v>>uint(bit)&1 != 0)
		}
	}
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
	s.mems[ri][word*r.width+bit] ^= ^uint64(0)
	s.dirty = true
}

// FlipDFF inverts a flip-flop's stored state on every lane — a
// register upset, for fault-injection tests.
func (s *Sim) FlipDFF(sig Signal) {
	if s.c.kinds[sig] != kDFF {
		panic(fmt.Sprintf("logic: FlipDFF on non-DFF signal %d", sig))
	}
	s.state[sig] ^= ^uint64(0)
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
	nv := s.state[sig]&^bit | laneMask(v)&bit
	if s.state[sig] != nv {
		s.state[sig] = nv
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
		if s.mems[ri][word*r.width+b]&bit != 0 {
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
	mem := s.mems[ri]
	base := word * r.width
	for b := 0; b < r.width && b < 64; b++ {
		mem[base+b] = mem[base+b]&^bit | laneMask(v>>uint(b)&1 != 0)&bit
	}
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
