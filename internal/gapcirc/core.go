package gapcirc

import (
	"fmt"
	"math/bits"

	"leonardo/internal/carng"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// FSM states of the GAP control unit. The controller walks the same
// micro-operations, in the same order, as the behavioural model:
// initialisation, evaluation scan, tournament selection and crossover
// pair by pair, mutation, population swap. States marked (draw)
// consume exactly one cellular-automaton sample, keeping the circuit
// lock-step equivalent to internal/gap.
const (
	StInitW0 = iota // load low 32 genome bits from the CA (draw)
	StInitW1        // load high 4 genome bits (draw)
	StInitWR        // write the assembled individual to the basis RAM
	StEval          // scan the basis population, update the best register
	StSelI1         // first tournament candidate index (draw)
	StSelI2         // second candidate index (draw)
	StSelF1         // read candidate 1: latch genome and fitness
	StSelT          // read candidate 2, selection coin, latch parent (draw)
	StCx            // crossover coin (draw)
	StPt            // crossover point, rejection-sampled (draw)
	StW1            // write first child to the intermediate RAM
	StW2            // write second child
	StMut1          // mutated individual index (draw)
	StMut2          // mutated bit, rejection-sampled; latch target word (draw)
	StMutW          // write back the flipped word
	StSwap          // swap population banks, bump the generation counter
	numStates
)

const stateBits = 4

// genBits is the width of the chip's generation counter. A generation
// target at or past 1<<genBits can never read on the counter.
const genBits = 16

// checkGenerations rejects generation targets the counter cannot
// reach, before any clock cycle is spent chasing them.
func checkGenerations(n int) error {
	if n < 0 {
		return fmt.Errorf("gapcirc: negative generation target %d", n)
	}
	if n >= 1<<genBits {
		return fmt.Errorf("gapcirc: generation target %d exceeds the %d-bit generation counter (at most %d)",
			n, genBits, 1<<genBits-1)
	}
	return nil
}

// BuildOpts selects implementation variants of the GAP circuit.
type BuildOpts struct {
	// RegisterFile stores the two populations in flip-flops with
	// explicit read multiplexers and write decoders instead of
	// CLB-RAM blocks. Behaviourally identical; vastly more expensive
	// on the device. The two variants bracket the paper's resource
	// figure (experiment E4).
	RegisterFile bool
	// FreeRunningRNG clocks the cellular automaton every cycle, as
	// the paper specifies ("It does not depend on the execution of
	// the genetic algorithm"). The default gates the CA clock to one
	// step per consumed sample, which preserves lock-step equivalence
	// with the behavioural model; free-running draws different (but
	// identically distributed) values and therefore a different — yet
	// equally valid — evolutionary trajectory.
	FreeRunningRNG bool
	// Freezable adds a "freeze" primary input whose complement gates
	// every flip-flop enable and reset and every RAM write enable, so
	// asserting freeze on a lane holds that lane's complete sequential
	// state — FSM, counters, CA, registers, populations — while other
	// lanes keep clocking. This is the per-lane clock gate the
	// lane-packed deme driver (demes.go) uses to park lanes at
	// generation barriers. With freeze deasserted the circuit behaves
	// exactly like the default build; without Freezable no gate is
	// inserted at all and the netlist is node-for-node identical to
	// before the option existed.
	Freezable bool
}

// Core is the structural GAP: the circuit plus the probe signals that
// tests and tools observe.
type Core struct {
	Circuit *logic.Circuit
	Params  gap.Params
	Opts    BuildOpts

	Gen       logic.Bus    // generation counter (16 bits)
	BestFit   logic.Bus    // best-ever fitness (5 bits)
	Best      logic.Bus    // best-ever genome (36 bits)
	BestValid logic.Signal // best register holds a genome
	State     logic.Bus    // FSM state (4 bits)
	Bank      logic.Signal // which RAM holds the basis population
	CA        CACircuit
	// Freeze is the per-lane hold input (valid only when
	// Opts.Freezable): driving it high on a lane stops that lane's
	// clock-enabled state cold.
	Freeze logic.Signal

	// regWords holds the per-word register buses in register-file
	// mode ([2][population][36]); nil in RAM mode.
	regWords [2][]logic.Bus
}

// Build constructs the GAP circuit with default options (CLB-RAM
// population storage).
func Build(p gap.Params) (*Core, error) { return BuildWith(p, BuildOpts{}) }

// BuildWith constructs the GAP circuit for the given parameters. The
// layout must be the paper's 36-bit layout, the population size a
// power of two (indices are drawn as raw sample bits), and the
// objective the paper's rule fitness (the only one that exists as a
// logic module).
func BuildWith(p gap.Params, opts BuildOpts) (*Core, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Layout != genome.PaperLayout {
		return nil, fmt.Errorf("gapcirc: circuit supports only the paper layout, got %+v", p.Layout)
	}
	if p.PopulationSize&(p.PopulationSize-1) != 0 {
		return nil, fmt.Errorf("gapcirc: population size %d must be a power of two", p.PopulationSize)
	}
	if p.Objective != nil {
		return nil, fmt.Errorf("gapcirc: custom objectives are not synthesizable")
	}
	if len(p.InitialPopulation) > 0 {
		return nil, fmt.Errorf("gapcirc: the chip initializes its population from the cellular automaton; warm starts are a behavioural-model feature")
	}

	c := logic.New()
	pop := p.PopulationSize
	idxBits := bits.Len(uint(pop - 1))
	const b = genome.Bits
	selT := uint64(carng.Threshold8(p.SelectionThreshold))
	xovT := uint64(carng.Threshold8(p.CrossoverThreshold))

	// --- per-lane clock gate ---
	// run is ANDed into every sequential enable and reset below. In the
	// default build it is Const1 and gate() folds away without creating
	// a node, so the netlist is unchanged; with Freezable it is the
	// complement of the freeze input, turning every AND into a real
	// clock gate.
	run := logic.Const1
	freeze := logic.Const0
	if opts.Freezable {
		freeze = c.Input("freeze")
		run = c.Not(freeze)
	}
	gate := func(s logic.Signal) logic.Signal { return c.And(s, run) }

	// --- state register and decoded state lines ---
	state := make(logic.Bus, stateBits)
	for i := range state {
		state[i] = c.FeedbackDFF(run, logic.Const0, false)
	}
	in := make([]logic.Signal, numStates)
	for s := 0; s < numStates; s++ {
		in[s] = c.EqConst(state, uint64(s))
	}

	// --- random generator, clock-enabled in draw states only so the
	// circuit consumes exactly one sample per behavioural draw (or
	// free-running, per the paper, when requested) ---
	caEn := c.Or(in[StInitW0], in[StInitW1], in[StSelI1], in[StSelI2],
		in[StSelT], in[StCx], in[StPt], in[StMut1], in[StMut2])
	if opts.FreeRunningRNG {
		caEn = logic.Const1
	}
	ca := BuildDefaultCA(c, p.Seed, gate(caEn))
	sampleIdx := ca.SampleBits(idxBits)
	sample6 := ca.SampleBits(6)
	sample8 := ca.SampleBits(8)

	// --- counters ---
	swapNow := in[StSwap]
	swapG := gate(swapNow)
	initCnt := c.Counter(idxBits, gate(in[StInitWR]), logic.Const0)
	evalCnt := c.Counter(idxBits, gate(in[StEval]), swapG)
	pairCnt := c.Counter(idxBits, gate(in[StW2]), swapG)
	mutCntBits := bits.Len(uint(maxInt(p.MutationsPerGeneration, 1)))
	mutCnt := c.Counter(mutCntBits, gate(in[StMutW]), swapG)
	gen := c.Counter(genBits, swapG, logic.Const0)

	// --- architectural flags and index registers ---
	// tsel: which parent the running tournament feeds; toggles each
	// time a tournament completes (StSelT), so it is 0 for the first
	// tournament of every pair and 1 for the second.
	tsel := c.FeedbackDFF(gate(in[StSelT]), logic.Const0, false)
	c.ConnectD(tsel, c.Not(tsel))
	// bank: toggles at each population swap.
	bank := c.FeedbackDFF(swapG, logic.Const0, false)
	c.ConnectD(bank, c.Not(bank))
	bankIs0 := c.Not(bank)

	i1 := c.RegisterBus(sampleIdx, gate(in[StSelI1]), logic.Const0)
	i2 := c.RegisterBus(sampleIdx, gate(in[StSelI2]), logic.Const0)
	mInd := c.RegisterBus(sampleIdx, gate(in[StMut1]), logic.Const0)

	// --- draw-dependent control ---
	coinSel := c.LtConst(sample8, selT)
	coinXov := c.LtConst(sample8, xovT)
	ptOK := c.LtConst(sample6, uint64(b)-1) // crossover offset accepted (< 35)
	bitOK := c.LtConst(sample6, uint64(b))  // mutation bit accepted (< 36)

	doCross := c.DFF(coinXov, gate(in[StCx]), logic.Const0)
	ptPlus1, _ := c.Inc(sample6)
	point := c.RegisterBus(ptPlus1, gate(c.And(in[StPt], ptOK)), logic.Const0)
	mBit := c.RegisterBus(sample6, gate(c.And(in[StMut2], bitOK)), logic.Const0)

	// --- RAM addressing ---
	// Basis port: init writes, evaluation scan, tournament reads.
	basisAddr := c.MuxBus(in[StSelF1], i2, i1)
	basisAddr = c.MuxBus(in[StEval], basisAddr, evalCnt)
	basisAddr = c.MuxBus(in[StInitWR], basisAddr, initCnt)
	// Intermediate port: child slots 2p and 2p+1, or the mutation
	// target (the default, also held through StMut2 so the hold
	// register below captures the addressed word).
	childAddr0 := append(logic.Bus{logic.Const0}, pairCnt[:idxBits-1]...)
	childAddr1 := append(logic.Bus{logic.Const1}, pairCnt[:idxBits-1]...)
	interAddr := c.MuxBus(in[StW1], mInd, childAddr0)
	interAddr = c.MuxBus(in[StW2], interAddr, childAddr1)

	ram0Addr := c.MuxBus(bankIs0, interAddr, basisAddr)
	ram1Addr := c.MuxBus(bankIs0, basisAddr, interAddr)

	// --- registers fed by RAM outputs (created now, wired below) ---
	// Candidate-1 latch, parents, mutation hold: FeedbackDFFs so their
	// D inputs can be connected after the RAMs exist.
	selF1G := gate(in[StSelF1])
	g1 := make(logic.Bus, b)
	for i := range g1 {
		g1[i] = c.FeedbackDFF(selF1G, logic.Const0, false)
	}
	f1 := make(logic.Bus, FitnessBits)
	for i := range f1 {
		f1[i] = c.FeedbackDFF(selF1G, logic.Const0, false)
	}
	loadA := gate(c.And(in[StSelT], c.Not(tsel)))
	loadB := gate(c.And(in[StSelT], tsel))
	parentA := make(logic.Bus, b)
	parentB := make(logic.Bus, b)
	for i := 0; i < b; i++ {
		parentA[i] = c.FeedbackDFF(loadA, logic.Const0, false)
		parentB[i] = c.FeedbackDFF(loadB, logic.Const0, false)
	}
	// Mutation hold register: captures the target word at the end of
	// the accepted StMut2 cycle, so StMutW writes hold XOR decode with
	// no same-cycle RAM read-modify-write path.
	mutHoldEn := gate(c.And(in[StMut2], bitOK))
	mutHold := make(logic.Bus, b)
	for i := range mutHold {
		mutHold[i] = c.FeedbackDFF(mutHoldEn, logic.Const0, false)
	}

	// --- crossover children (combinational from parents and point) ---
	crossA := make(logic.Bus, b)
	crossB := make(logic.Bus, b)
	for i := 0; i < b; i++ {
		// Bit i comes from the first parent when i < point.
		fromA := c.Not(c.LtConst(point, uint64(i)+1)) // NOT (point <= i)
		crossA[i] = c.Mux(fromA, parentB[i], parentA[i])
		crossB[i] = c.Mux(fromA, parentA[i], parentB[i])
	}
	childA := c.MuxBus(doCross, parentA, crossA)
	childB := c.MuxBus(doCross, parentB, crossB)
	childSel := c.MuxBus(in[StW2], childA, childB)

	// --- mutation flip data ---
	bitDecode := make(logic.Bus, b)
	for i := 0; i < b; i++ {
		bitDecode[i] = c.EqConst(mBit, uint64(i))
	}
	mutData := c.XorBus(mutHold, bitDecode)

	// --- initial random genome assembly (word 0 = 32 bits, word 1 =
	// 4 bits, straight from the CA state like the behavioural
	// initialiser) ---
	asm := make(logic.Bus, b)
	initW0G := gate(in[StInitW0])
	initW1G := gate(in[StInitW1])
	for i := 0; i < 32; i++ {
		asm[i] = c.DFF(ca.Next[i], initW0G, logic.Const0)
	}
	for i := 32; i < b; i++ {
		asm[i] = c.DFF(ca.Next[i-32], initW1G, logic.Const0)
	}

	// --- the two population RAMs ---
	basisWE := gate(in[StInitWR])
	interWE := gate(c.Or(in[StW1], in[StW2], in[StMutW]))
	interDin := c.MuxBus(in[StMutW], childSel, mutData)
	ram0We := c.Mux(bankIs0, interWE, basisWE)
	ram1We := c.Mux(bankIs0, basisWE, interWE)
	ram0Din := c.MuxBus(bankIs0, interDin, asm)
	ram1Din := c.MuxBus(bankIs0, asm, interDin)
	var ram0Out, ram1Out logic.Bus
	var regWords [2][]logic.Bus
	if opts.RegisterFile {
		ram0Out, regWords[0] = buildRegFile(c, pop, ram0Addr, ram0Din, ram0We)
		ram1Out, regWords[1] = buildRegFile(c, pop, ram1Addr, ram1Din, ram1We)
	} else {
		ram0Out = c.RAM("ram0", pop, ram0Addr, ram0Din, ram0We)
		ram1Out = c.RAM("ram1", pop, ram1Addr, ram1Din, ram1We)
	}
	basisData := c.MuxBus(bankIs0, ram1Out, ram0Out)
	interData := c.MuxBus(bankIs0, ram0Out, ram1Out)

	// --- fitness of the genome on the basis read port (one shared
	// fitness module serves both the evaluation scan and the
	// tournaments, exactly as one module serves the whole chip) ---
	fit := BuildFitness(c, basisData)

	// Late wiring of the RAM-fed registers.
	for i := range g1 {
		c.ConnectD(g1[i], basisData[i])
	}
	for i := range f1 {
		c.ConnectD(f1[i], fit[i])
	}
	for i := range mutHold {
		c.ConnectD(mutHold[i], interData[i])
	}

	// Tournament: candidate 2 is on the read port during StSelT;
	// candidate 1 was latched. Ties keep candidate 1, matching the
	// behavioural comparator.
	cand2Better := c.Gt(fit, f1)
	better := c.MuxBus(cand2Better, g1, basisData)
	worse := c.MuxBus(cand2Better, basisData, g1)
	parentVal := c.MuxBus(coinSel, worse, better)
	for i := 0; i < b; i++ {
		c.ConnectD(parentA[i], parentVal[i])
		c.ConnectD(parentB[i], parentVal[i])
	}

	// --- best-ever register, updated during the evaluation scan ---
	bestValid := c.DFF(logic.Const1, gate(in[StEval]), logic.Const0)
	bestFit := make(logic.Bus, FitnessBits)
	for i := range bestFit {
		bestFit[i] = c.FeedbackDFF(logic.Const0, logic.Const0, false) // enable wired below
	}
	improved := c.Or(c.Not(bestValid), c.Gt(fit, bestFit))
	bestEn := gate(c.And(in[StEval], improved))
	best := make(logic.Bus, b)
	for i := range best {
		best[i] = c.DFF(basisData[i], bestEn, logic.Const0)
	}
	for i := range bestFit {
		c.ConnectD(bestFit[i], fit[i])
		c.ConnectEnable(bestFit[i], bestEn)
	}

	// --- FSM next-state logic ---
	lastInit := c.EqConst(initCnt, uint64(pop-1))
	lastEval := c.EqConst(evalCnt, uint64(pop-1))
	lastPair := c.EqConst(pairCnt, uint64(pop/2-1))
	lastMut := c.EqConst(mutCnt, uint64(maxInt(p.MutationsPerGeneration-1, 0)))

	constState := func(s int) logic.Bus { return c.ConstBus(uint64(s), stateBits) }
	pick := func(cond logic.Signal, then, els int) logic.Bus {
		return c.MuxBus(cond, constState(els), constState(then))
	}
	afterW2 := pick(lastPair, StMut1, StSelI1)
	if p.MutationsPerGeneration == 0 {
		afterW2 = pick(lastPair, StSwap, StSelI1)
	}
	next := constState(StInitW0)
	transitions := []struct {
		when logic.Signal
		then logic.Bus
	}{
		{in[StInitW0], constState(StInitW1)},
		{in[StInitW1], constState(StInitWR)},
		{in[StInitWR], pick(lastInit, StEval, StInitW0)},
		{in[StEval], pick(lastEval, StSelI1, StEval)},
		{in[StSelI1], constState(StSelI2)},
		{in[StSelI2], constState(StSelF1)},
		{in[StSelF1], constState(StSelT)},
		{in[StSelT], pick(tsel, StCx, StSelI1)},
		{in[StCx], pick(coinXov, StPt, StW1)},
		{in[StPt], pick(ptOK, StW1, StPt)},
		{in[StW1], constState(StW2)},
		{in[StW2], afterW2},
		{in[StMut1], constState(StMut2)},
		{in[StMut2], pick(bitOK, StMutW, StMut2)},
		{in[StMutW], pick(lastMut, StSwap, StMut1)},
		{in[StSwap], constState(StEval)},
	}
	for _, tr := range transitions {
		next = c.MuxBus(tr.when, next, tr.then)
	}
	for i := range state {
		c.ConnectD(state[i], next[i])
	}

	core := &Core{
		Circuit:   c,
		Params:    p,
		Opts:      opts,
		regWords:  regWords,
		Gen:       gen,
		BestFit:   bestFit,
		Best:      best,
		BestValid: bestValid,
		State:     state,
		Bank:      bank,
		CA:        ca,
		Freeze:    freeze,
	}
	c.OutputBus("gen", gen)
	c.OutputBus("bestFit", bestFit)
	c.OutputBus("best", best)
	c.Output("bestValid", bestValid)
	c.OutputBus("state", state)
	c.Output("bank", bank)
	return core, nil
}

// RunGenerations steps the simulator until the circuit has completed n
// generations (the generation counter reads n and the evaluation scan
// has finished), returning the clock cycles consumed. maxCycles guards
// against livelock; 0 means a generous default. n must fit the 16-bit
// generation counter.
func (co *Core) RunGenerations(s *logic.Sim, n int, maxCycles int) (uint64, error) {
	if err := checkGenerations(n); err != nil {
		return 0, err
	}
	if maxCycles == 0 {
		maxCycles = 2_000_000
	}
	start := s.Cycles()
	reached := func() bool {
		return s.GetBus(co.Gen) == uint64(n) && s.GetBus(co.State) == StSelI1
	}
	if reached() {
		return 0, nil
	}
	_, ok := s.RunUntil(reached, maxCycles)
	if !ok {
		return s.Cycles() - start, fmt.Errorf("gapcirc: generation %d not reached within %d cycles", n, maxCycles)
	}
	return s.Cycles() - start, nil
}

// ReadBasis returns the current basis population from the simulator.
func (co *Core) ReadBasis(s *logic.Sim) []genome.Genome {
	bankIdx := 0
	if s.Get(co.Bank) {
		bankIdx = 1
	}
	out := make([]genome.Genome, co.Params.PopulationSize)
	if co.Opts.RegisterFile {
		for i := range out {
			out[i] = genome.Genome(s.GetBus(co.regWords[bankIdx][i])) & genome.Mask
		}
		return out
	}
	name := "ram0"
	if bankIdx == 1 {
		name = "ram1"
	}
	for i := range out {
		out[i] = genome.Genome(s.ReadRAM(name, i)) & genome.Mask
	}
	return out
}

// buildRegFile implements a words x 36 storage array in flip-flops:
// a write decoder gates per-word enables, and per-bit read
// multiplexer trees select the addressed word.
func buildRegFile(c *logic.Circuit, words int, addr, din logic.Bus, we logic.Signal) (logic.Bus, []logic.Bus) {
	wordSel := c.Decoder(addr)
	regs := make([]logic.Bus, words)
	for w := 0; w < words; w++ {
		en := c.And(we, wordSel[w])
		regs[w] = c.RegisterBus(din, en, logic.Const0)
	}
	out := make(logic.Bus, len(din))
	for bit := range din {
		options := make(logic.Bus, words)
		for w := 0; w < words; w++ {
			options[w] = regs[w][bit]
		}
		out[bit] = c.Select(addr, options)
	}
	return out, regs
}

// BestOf returns the best-ever genome and fitness from the simulator.
func (co *Core) BestOf(s *logic.Sim) (genome.Genome, int) {
	return genome.Genome(s.GetBus(co.Best)) & genome.Mask, int(s.GetBus(co.BestFit))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
