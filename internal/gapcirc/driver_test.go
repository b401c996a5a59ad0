package gapcirc

import (
	"context"
	"errors"
	"math/bits"
	"testing"

	"leonardo/internal/engine"
	"leonardo/internal/gap"
)

func testDriverParams() gap.Params {
	p := gap.PaperParams(1)
	p.PopulationSize = 8
	return p
}

// TestGenerationTargetBeyondCounter: the generation counter is 16 bits
// wide, so a target of 1<<16 or more can never match it. Such a run
// must fail at construction instead of clocking until its cycle cap.
func TestGenerationTargetBeyondCounter(t *testing.T) {
	p := testDriverParams()
	for _, gens := range []int{1 << 16, 70000, -1} {
		if _, err := NewDriver(p, BuildOpts{}, []uint64{1}, gens, 1<<40); err == nil {
			t.Errorf("NewDriver accepted generation target %d", gens)
		}
	}
	if _, err := NewDriver(p, BuildOpts{}, []uint64{1}, 1<<16-1, 0); err != nil {
		t.Errorf("NewDriver rejected the largest countable target: %v", err)
	}
	co, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sim := co.Circuit.MustCompile()
	if _, err := co.RunGenerations(sim, 1<<16, 0); err == nil {
		t.Error("RunGenerations accepted generation target 1<<16")
	}
	if sim.Cycles() != 0 {
		t.Errorf("rejected target still ran %d cycles", sim.Cycles())
	}
}

// TestDriverMatchesRunSeeds pins the refactor: driving the lane-packed
// batch through the engine loop computes exactly what the one-shot
// RunSeeds wrapper computes.
func TestDriverMatchesRunSeeds(t *testing.T) {
	p := testDriverParams()
	seeds := []uint64{1, 2, 3, 42, 99}
	const generations = 8

	core, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.Circuit.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.RunSeeds(sim, seeds, generations, 0)
	if err != nil {
		t.Fatal(err)
	}

	d, err := NewDriver(p, BuildOpts{}, seeds, generations, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range ref {
		if got[l] != ref[l] {
			t.Fatalf("lane %d: driver %+v, RunSeeds %+v", l, got[l], ref[l])
		}
	}
}

// TestDriverSnapshotResumeCycleIdentical is the gate-level checkpoint
// guarantee: snapshot mid-run, restore into a fresh circuit, continue —
// every lane's best genome, best fitness, and completion cycle must
// match the uninterrupted run exactly.
func TestDriverSnapshotResumeCycleIdentical(t *testing.T) {
	p := testDriverParams()
	seeds := []uint64{1, 7, 42, 0xDEADBEEF}
	const generations = 8

	d, err := NewDriver(p, BuildOpts{}, seeds, generations, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A few engine steps in: mid-generation for most lanes.
	if err := engine.Steps(context.Background(), d, nil, 3); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	midCycle := d.sim.Cycles()

	ref, err := d.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	r, err := RestoreDriver(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.sim.Cycles() != midCycle {
		t.Fatalf("restored at cycle %d, want %d", r.sim.Cycles(), midCycle)
	}
	got, err := r.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range ref {
		if got[l] != ref[l] {
			t.Fatalf("lane %d diverged after restore: %+v vs %+v", l, got[l], ref[l])
		}
	}
}

// TestDriverSnapshotWithFinishedLanes checkpoints late in the run, when
// some lanes have already latched results, and verifies those latched
// results survive the round trip untouched.
func TestDriverSnapshotWithFinishedLanes(t *testing.T) {
	p := testDriverParams()
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	const generations = 6

	d, err := NewDriver(p, BuildOpts{}, seeds, generations, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Step until at least one lane finishes but not all.
	for !d.Done() {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		done := len(d.res) - bits.OnesCount64(d.running)
		if done >= 1 && done < len(seeds) {
			break
		}
	}
	if d.Done() || d.running == laneSet(len(seeds)) {
		t.Skip("all lanes finished in lockstep; cannot test a partial checkpoint")
	}
	snap := d.Snapshot()
	ref, err := d.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreDriver(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range ref {
		if got[l] != ref[l] {
			t.Fatalf("lane %d diverged after partial checkpoint: %+v vs %+v", l, got[l], ref[l])
		}
	}
}

func TestDriverCancellation(t *testing.T) {
	p := testDriverParams()
	d, err := NewDriver(p, BuildOpts{}, []uint64{1, 2, 3}, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var steps int
	obs := engine.FuncObserver(func(ev engine.Event) {
		steps++
		if steps == 2 {
			cancel()
		}
	})
	res, err := d.RunCtx(ctx, obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Cancellation lands on a stride boundary: well under one
	// generation after the cancel point.
	if c := d.sim.Cycles(); c != 2*driverStride {
		t.Fatalf("cancelled at cycle %d, want %d", c, 2*driverStride)
	}
	for l := range res {
		if res[l].Done {
			t.Fatalf("lane %d claims completion after %d cycles", l, d.sim.Cycles())
		}
	}
	// The driver can continue afterwards.
	if _, err := d.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("driver did not finish after resuming")
	}
}

func TestDriverLivelockGuard(t *testing.T) {
	p := testDriverParams()
	d, err := NewDriver(p, BuildOpts{}, []uint64{1}, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCtx(context.Background(), nil); err == nil {
		t.Fatal("livelock guard did not fire")
	}
}

func TestDriverEventTelemetry(t *testing.T) {
	p := testDriverParams()
	seeds := []uint64{5, 6}
	d, err := NewDriver(p, BuildOpts{}, seeds, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rec engine.Recorder
	if _, err := d.RunCtx(context.Background(), &rec); err != nil {
		t.Fatal(err)
	}
	last, ok := rec.Last()
	if !ok {
		t.Fatal("no events observed")
	}
	if last.LanesDone != len(seeds) {
		t.Fatalf("final event reports %d lanes done, want %d", last.LanesDone, len(seeds))
	}
	if last.Generation != 4 {
		t.Fatalf("final event generation %d, want 4", last.Generation)
	}
	if last.Cycle == 0 || last.Cycle != d.sim.Cycles() {
		t.Fatalf("final event cycle %d, sim at %d", last.Cycle, d.sim.Cycles())
	}
}

func TestRestoreDriverRejectsCorrupt(t *testing.T) {
	d, err := NewDriver(testDriverParams(), BuildOpts{}, []uint64{1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	for name, data := range map[string][]byte{
		"empty":     {},
		"truncated": snap[:len(snap)-9],
		"trailing":  append(append([]byte{}, snap...), 1),
	} {
		if _, err := RestoreDriver(data); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
}
