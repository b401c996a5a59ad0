package gapcirc

import (
	"context"
	"fmt"
	"math/bits"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
	"leonardo/internal/genome"
	"leonardo/internal/logic"
)

// Driver is the engine-backed form of the lane-packed multi-seed run:
// it owns a compiled GAP circuit plus up to logic.Lanes seeds and
// advances them under the shared run-loop contract — Step executes a
// bounded slice of clock cycles, so cancellation and checkpointing land
// within a fraction of a generation. RunSeeds is a thin wrapper around
// a Driver run to completion.
type Driver struct {
	core *Core
	sim  *logic.Sim

	generations int // per-lane target
	maxCycles   uint64
	res         []LaneResult
	running     uint64 // lanes that have not latched their result
}

// driverStride is how many clock cycles one engine Step executes. A
// paper-parameter generation takes roughly 1900 cycles, so the stride
// keeps cancellation latency under a generation while the per-step
// overhead (one Done/ctx check per stride) stays negligible.
const driverStride = 1024

// defaultMaxCycles is the livelock guard shared by Driver and RunSeeds.
const defaultMaxCycles = 2_000_000

// NewDriver builds the GAP circuit for the parameters, compiles it,
// seeds lane l with seeds[l], and returns a Driver that will run every
// lane to the given per-lane generation count. maxCycles caps the
// shared clock (0 means a generous default).
func NewDriver(p gap.Params, opts BuildOpts, seeds []uint64, generations, maxCycles int) (*Driver, error) {
	co, err := BuildWith(p, opts)
	if err != nil {
		return nil, err
	}
	s, err := co.Circuit.Compile()
	if err != nil {
		return nil, err
	}
	return newDriver(co, s, seeds, generations, maxCycles)
}

// newDriver wraps an existing core and freshly compiled simulator.
func newDriver(co *Core, s *logic.Sim, seeds []uint64, generations, maxCycles int) (*Driver, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("gapcirc: no seeds")
	}
	if len(seeds) > logic.Lanes {
		return nil, fmt.Errorf("gapcirc: %d seeds exceed the %d simulator lanes", len(seeds), logic.Lanes)
	}
	if err := distinctSeeds(co, seeds); err != nil {
		return nil, err
	}
	if s.Cycles() != 0 {
		return nil, fmt.Errorf("gapcirc: driver needs a freshly compiled simulator, this one has run %d cycles", s.Cycles())
	}
	if co.Opts.Freezable {
		return nil, fmt.Errorf("gapcirc: the driver never freezes lanes; freezable circuits belong to the lane-deme group (NewLaneDemes)")
	}
	if err := checkGenerations(generations); err != nil {
		return nil, err
	}
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles
	}
	d := &Driver{
		core:        co,
		sim:         s,
		generations: generations,
		maxCycles:   uint64(maxCycles),
		res:         make([]LaneResult, len(seeds)),
		running:     laneSet(len(seeds)),
	}
	for l, seed := range seeds {
		co.SeedLane(s, l, seed)
		d.res[l].Seed = seed
	}
	d.check()
	return d, nil
}

// laneSet is the mask of lanes 0..n-1.
func laneSet(n int) uint64 {
	if n >= logic.Lanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// check latches the result of every running lane that meets the
// completion predicate this cycle — Gen reads the target and the FSM
// sits at StSelI1, the barrier LaneDemes.advanceLocked also uses —
// found with one all-lanes bus compare per bus.
func (d *Driver) check() {
	s, co := d.sim, d.core
	m := s.BusEqMask(co.Gen, uint64(d.generations)) & s.BusEqMask(co.State, StSelI1) & d.running
	d.running &^= m
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		d.res[l].Best, d.res[l].BestFit = co.BestOfLane(s, l)
		d.res[l].Cycles = s.Cycles()
		d.res[l].Done = true
	}
}

// Step implements engine.Stepper: it advances up to driverStride clock
// cycles, checking lane completion after every cycle exactly as
// RunSeeds always did. It fails if the clock hits the livelock guard
// with lanes still running.
func (d *Driver) Step() error {
	for i := 0; i < driverStride && d.running != 0; i++ {
		if d.sim.Cycles() >= d.maxCycles {
			return fmt.Errorf("gapcirc: %d of %d lanes did not reach generation %d within %d cycles",
				bits.OnesCount64(d.running), len(d.res), d.generations, d.maxCycles)
		}
		d.sim.Step()
		d.check()
	}
	return nil
}

// Done implements engine.Stepper: the run is over when every lane has
// latched its result.
func (d *Driver) Done() bool { return d.running == 0 }

// Event implements engine.Stepper. Generation is the slowest
// still-running lane's counter (or the target when all are done);
// BestEver is the best fitness latched or in flight across all lanes.
func (d *Driver) Event() engine.Event {
	gen := d.generations
	best := 0
	for l := range d.res {
		if d.res[l].Done {
			if d.res[l].BestFit > best {
				best = d.res[l].BestFit
			}
			continue
		}
		if g := int(d.sim.GetBusLane(d.core.Gen, l)); g < gen {
			gen = g
		}
		if _, f := d.core.BestOfLane(d.sim, l); f > best {
			best = f
		}
	}
	return engine.Event{
		Generation: gen,
		BestEver:   best,
		Cycle:      d.sim.Cycles(),
		LanesDone:  len(d.res) - bits.OnesCount64(d.running),
	}
}

// Result returns the per-lane outcomes (shared slice; valid any time,
// final once Done reports true).
func (d *Driver) Result() []LaneResult { return d.res }

// Best returns the best individual across all lanes — latched results
// for finished lanes, the live best register otherwise — as an extended
// genome on the paper layout. Together with Step/Done/Event/Snapshot it
// lets a Driver serve as an island deme (internal/island); the
// population lives in circuit RAM, so a gate-level deme emigrates its
// champion but does not accept immigrants.
func (d *Driver) Best() (genome.Extended, int) {
	var bg genome.Genome
	best := -1
	for l := range d.res {
		if d.res[l].Done {
			if d.res[l].BestFit > best {
				best, bg = d.res[l].BestFit, d.res[l].Best
			}
			continue
		}
		if g, f := d.core.BestOfLane(d.sim, l); f > best {
			best, bg = f, g
		}
	}
	return genome.FromGenome(bg), best
}

// RunCtx drives every lane to completion under ctx, reporting progress
// to obs (nil for none). On cancellation the partial results mark
// unfinished lanes Done=false.
func (d *Driver) RunCtx(ctx context.Context, obs engine.Observer) ([]LaneResult, error) {
	err := engine.Run(ctx, d, obs)
	return d.res, err
}

const (
	driverSnapKind    = "gapcirc"
	driverSnapVersion = 1
)

// Snapshot serializes the driver: build parameters, per-lane results,
// and the complete sequential state of the simulator. Circuit
// construction is deterministic, so the rebuilt circuit's node order —
// which keys the simulator state — matches by construction.
func (d *Driver) Snapshot() []byte {
	e := engine.NewEnc(driverSnapKind, driverSnapVersion)
	p := d.core.Params
	e.Int(p.Layout.Steps)
	e.Int(p.Layout.Legs)
	e.Int(p.PopulationSize)
	e.F64(p.SelectionThreshold)
	e.F64(p.CrossoverThreshold)
	e.Int(p.MutationsPerGeneration)
	e.Int(p.MaxGenerations)
	e.U64(p.Seed)
	e.Bool(d.core.Opts.RegisterFile)
	e.Bool(d.core.Opts.FreeRunningRNG)
	e.Int(d.generations)
	e.U64(d.maxCycles)
	e.Int(len(d.res))
	for _, r := range d.res {
		e.U64(r.Seed)
		e.U64(uint64(r.Best))
		e.Int(r.BestFit)
		e.U64(r.Cycles)
		e.Bool(r.Done)
	}
	d.sim.SnapshotState().EncodeTo(e)
	return e.Bytes()
}

// RestoreDriver rebuilds a Driver from a Snapshot: it reconstructs the
// circuit from the serialized parameters (deterministic), compiles a
// fresh simulator, and overwrites its sequential state, so the
// continued run is cycle-identical to one that was never interrupted.
func RestoreDriver(data []byte) (*Driver, error) {
	dec, err := engine.NewDec(data, driverSnapKind)
	if err != nil {
		return nil, err
	}
	if dec.Version != driverSnapVersion {
		return nil, fmt.Errorf("gapcirc: snapshot version %d, want %d", dec.Version, driverSnapVersion)
	}
	p := gap.Params{
		Layout:                 genome.Layout{Steps: dec.Int(), Legs: dec.Int()},
		PopulationSize:         dec.Int(),
		SelectionThreshold:     dec.F64(),
		CrossoverThreshold:     dec.F64(),
		MutationsPerGeneration: dec.Int(),
		MaxGenerations:         dec.Int(),
		Seed:                   dec.U64(),
	}
	opts := BuildOpts{RegisterFile: dec.Bool(), FreeRunningRNG: dec.Bool()}
	generations := dec.Int()
	maxCycles := dec.U64()
	nLanes := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nLanes < 1 || nLanes > logic.Lanes {
		return nil, fmt.Errorf("gapcirc: snapshot has %d lanes", nLanes)
	}
	if err := checkGenerations(generations); err != nil {
		return nil, err
	}
	res := make([]LaneResult, nLanes)
	running := uint64(0)
	for l := range res {
		res[l] = LaneResult{
			Seed:    dec.U64(),
			Best:    genome.Genome(dec.U64()) & genome.Mask,
			BestFit: dec.Int(),
			Cycles:  dec.U64(),
			Done:    dec.Bool(),
		}
		if !res[l].Done {
			running |= 1 << uint(l)
		}
	}
	st, err := logic.DecodeSimState(dec)
	if err != nil {
		return nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}

	co, err := BuildWith(p, opts)
	if err != nil {
		return nil, fmt.Errorf("gapcirc: snapshot parameters: %w", err)
	}
	s, err := co.Circuit.Compile()
	if err != nil {
		return nil, err
	}
	if err := s.RestoreState(st); err != nil {
		return nil, err
	}
	return &Driver{
		core:        co,
		sim:         s,
		generations: generations,
		maxCycles:   maxCycles,
		res:         res,
		running:     running,
	}, nil
}
