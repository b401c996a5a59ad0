package logic

import (
	"fmt"

	"leonardo/internal/engine"
)

// SimState is a deep copy of everything that survives a clock edge in a
// compiled simulator: the clock count, the driven primary inputs, all
// flip-flop lane vectors, and all RAM contents. Combinational values
// are not stored — they are recomputed by settle on the next access.
//
// A state is only meaningful for a Sim compiled from the same circuit:
// the slices are keyed by node order, which Compile derives
// deterministically from the circuit construction order.
//
//leo:snapshot
type SimState struct {
	Cycles uint64
	Inputs []uint64   // per input node, in node-index order
	DFFs   []uint64   // per flip-flop, in node-index order
	RAMs   [][]uint64 // per RAM, lane vector per (word, bit)
}

// maxSnapshotRAMs bounds the RAM count DecodeSimState accepts, so a
// corrupt length prefix cannot drive a huge allocation.
const maxSnapshotRAMs = 1 << 16

// EncodeTo appends the state to an engine snapshot stream. The layout
// is the historical gapcirc driver format: cycle count, input and
// flip-flop lane vectors, then a RAM count followed by one lane vector
// per RAM.
func (st SimState) EncodeTo(e *engine.Enc) {
	e.U64(st.Cycles)
	e.Words(st.Inputs)
	e.Words(st.DFFs)
	e.Int(len(st.RAMs))
	for _, mem := range st.RAMs {
		e.Words(mem)
	}
}

// DecodeSimState reads a state written by EncodeTo. Dimension checks
// against a concrete circuit happen later, in Sim.RestoreState; here
// only the RAM count is sanity-bounded.
func DecodeSimState(d *engine.Dec) (SimState, error) {
	st := SimState{
		Cycles: d.U64(),
		Inputs: d.Words(),
		DFFs:   d.Words(),
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return SimState{}, err
	}
	if n < 0 || n > maxSnapshotRAMs {
		return SimState{}, fmt.Errorf("logic: snapshot has %d RAMs", n)
	}
	st.RAMs = make([][]uint64, n)
	for i := range st.RAMs {
		st.RAMs[i] = d.Words()
	}
	return st, d.Err()
}

// inputNodes lists the kInput nodes in index order.
func (s *Sim) inputNodes() []int32 {
	var ins []int32
	for i, k := range s.c.kinds {
		if k == kInput {
			ins = append(ins, int32(i))
		}
	}
	return ins
}

// SnapshotState deep-copies the simulator's sequential state. Take it
// between Steps; the copy is independent of the simulator's future.
func (s *Sim) SnapshotState() SimState {
	st := SimState{Cycles: s.cycles}
	for _, i := range s.inputNodes() {
		st.Inputs = append(st.Inputs, s.val[i])
	}
	st.DFFs = make([]uint64, len(s.dffs))
	for j, i := range s.dffs {
		st.DFFs[j] = s.val[i]
	}
	st.RAMs = make([][]uint64, len(s.rams))
	for ri, r := range s.rams {
		st.RAMs[ri] = append([]uint64(nil), r.mem...)
	}
	return st
}

// RestoreState overwrites the simulator's sequential state with a
// snapshot taken from a Sim compiled from an identical circuit. It
// validates every dimension against the compiled circuit before
// touching anything, so a mismatched snapshot leaves the Sim unchanged.
func (s *Sim) RestoreState(st SimState) error {
	ins := s.inputNodes()
	if len(st.Inputs) != len(ins) {
		return fmt.Errorf("logic: snapshot has %d inputs, circuit has %d", len(st.Inputs), len(ins))
	}
	if len(st.DFFs) != len(s.dffs) {
		return fmt.Errorf("logic: snapshot has %d flip-flops, circuit has %d", len(st.DFFs), len(s.dffs))
	}
	if len(st.RAMs) != len(s.rams) {
		return fmt.Errorf("logic: snapshot has %d RAMs, circuit has %d", len(st.RAMs), len(s.rams))
	}
	for ri, mem := range st.RAMs {
		if len(mem) != len(s.rams[ri].mem) {
			return fmt.Errorf("logic: snapshot RAM %d has %d bit vectors, circuit has %d",
				ri, len(mem), len(s.rams[ri].mem))
		}
	}
	s.cycles = st.Cycles
	for j, i := range ins {
		s.val[i] = st.Inputs[j]
	}
	for j, i := range s.dffs {
		s.val[i] = st.DFFs[j]
	}
	for ri, mem := range st.RAMs {
		copy(s.rams[ri].mem, mem)
		s.rams[ri].stale = ^uint64(0)
	}
	s.dirty = true
	return nil
}
