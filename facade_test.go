package leonardo

import (
	"context"
	"errors"
	"testing"
)

// TestEvolveCtxMatchesEvolve pins the facade: the context-aware entry
// point reproduces the legacy Evolve run exactly.
func TestEvolveCtxMatchesEvolve(t *testing.T) {
	ref, err := Evolve(PaperParams(11))
	if err != nil {
		t.Fatal(err)
	}
	var events int
	res, err := EvolveCtx(context.Background(), PaperParams(11), ObserverFunc(func(Event) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != ref.Generations || res.BestFitness != ref.BestFitness ||
		res.Draws != ref.Draws || !res.Best.Bits.Equal(ref.Best.Bits) {
		t.Fatalf("EvolveCtx %+v != Evolve %+v", res, ref)
	}
	if events != res.Generations {
		t.Fatalf("observed %d events over %d generations", events, res.Generations)
	}
}

// TestRunPauseResume exercises the public pause/resume path: step a run
// partway, snapshot it, and finish both the original and the resumed
// run — they must agree bit for bit with an uninterrupted run.
func TestRunPauseResume(t *testing.T) {
	p := PaperParams(23)
	ref, err := Evolve(p)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRun(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && !r.Done(); i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()

	resumedAny, err := ResumeAny(snap)
	if err != nil {
		t.Fatal(err)
	}
	resumed, ok := resumedAny.(*Run)
	if !ok {
		t.Fatalf("ResumeAny returned %T, want *Run", resumedAny)
	}
	if resumed.Generation() != r.Generation() {
		t.Fatalf("resumed at generation %d, paused at %d", resumed.Generation(), r.Generation())
	}
	res, err := resumed.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != ref.Generations || res.BestFitness != ref.BestFitness ||
		res.Draws != ref.Draws || !res.Best.Bits.Equal(ref.Best.Bits) {
		t.Fatalf("resumed run %+v != uninterrupted run %+v", res, ref)
	}
}

// TestEvolveIslands exercises the archipelago facade: a small ring
// converges to the maximum rule fitness, and the pause/resume handle
// continues an interrupted archipelago to the same champion.
func TestEvolveIslands(t *testing.T) {
	p := IslandParams{Demes: 4, MigrateEvery: 10, Topology: Ring, Base: PaperParams(7)}
	r, err := NewIslandRun(p)
	if err != nil {
		t.Fatal(err)
	}
	var epochs int
	res, err := r.RunCtx(context.Background(), ObserverFunc(func(Event) { epochs++ }))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.BestFitness != res.MaxFitness {
		t.Fatalf("archipelago did not converge to the maximum: %+v", res)
	}
	if epochs == 0 {
		t.Fatal("no epoch events observed")
	}
	if got := Fitness(res.Best.Packed()); got != res.BestFitness {
		t.Fatalf("champion rescores to %d, result says %d", got, res.BestFitness)
	}
}

// TestIslandRunPauseResume is TestRunPauseResume for the archipelago
// handle: pause after a few epochs, resume from the snapshot, and land
// on the same champion as the uninterrupted run.
func TestIslandRunPauseResume(t *testing.T) {
	p := IslandParams{Demes: 3, MigrateEvery: 10, Base: PaperParams(19)}
	twin, err := NewIslandRun(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := twin.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewIslandRun(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && !r.Done(); i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	resumedAny, err := ResumeAny(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	resumed, ok := resumedAny.(*IslandRun)
	if !ok {
		t.Fatalf("ResumeAny returned %T, want *IslandRun", resumedAny)
	}
	if resumed.Epoch() != r.Epoch() {
		t.Fatalf("resumed at epoch %d, paused at %d", resumed.Epoch(), r.Epoch())
	}
	res, err := resumed.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != ref.BestFitness || res.Draws != ref.Draws ||
		res.Migrations != ref.Migrations || !res.Best.Bits.Equal(ref.Best.Bits) {
		t.Fatalf("resumed archipelago %+v != uninterrupted %+v", res, ref)
	}
}

// TestResumeRejectsGarbage keeps ResumeAny a safe boundary for
// snapshot files read from disk.
func TestResumeRejectsGarbage(t *testing.T) {
	if _, err := ResumeAny(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := ResumeAny([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestEvolveCtxCancellation: a cancelled context stops the run at a
// generation boundary with the context's error and a valid partial
// result.
func TestEvolveCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stopAt := 5
	var last int
	res, err := EvolveCtx(ctx, PaperParams(3), ObserverFunc(func(ev Event) {
		last = ev.Generation
		if ev.Generation == stopAt {
			cancel()
		}
	}))
	if res.Converged && res.Generations <= stopAt {
		t.Skip("run converged before the cancellation point")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Generations != stopAt || last != stopAt {
		t.Fatalf("stopped at generation %d (last event %d), want %d", res.Generations, last, stopAt)
	}
	if res.BestFitness <= 0 || res.MaxFitness <= 0 {
		t.Fatalf("partial result malformed: %+v", res)
	}
}

// TestLanePackRunFacade drives the lane-packed archipelago through the
// facade: a RunSpec-built run, ResumeAny round-trip mid-run, and
// bit-identical completion against the uninterrupted twin.
func TestLanePackRunFacade(t *testing.T) {
	spec := RunSpec{Kind: KindLanePack, Seed: 23, Islands: 4,
		Population: 8, MigrateEvery: 5, MaxGenerations: 20}
	runner, err := spec.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	if runner.Kind() != KindLanePack {
		t.Fatalf("runner kind %q, want %q", runner.Kind(), KindLanePack)
	}
	lp := runner.(*LanePackRun)

	ref, err := lp.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Generations != 20 {
		t.Fatalf("ran %d generations, want the 20-generation budget", ref.Generations)
	}
	if got := Fitness(ref.Best.Packed()); got != ref.BestFitness {
		t.Fatalf("champion rescores to %d, result says %d", got, ref.BestFitness)
	}

	fresh, err := spec.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob := fresh.Snapshot()
	if kind, err := SnapshotKind(blob); err != nil || kind != KindLanePack {
		t.Fatalf("snapshot kind %q (%v), want %q", kind, err, KindLanePack)
	}
	resumedAny, err := ResumeAny(blob)
	if err != nil {
		t.Fatal(err)
	}
	resumed, ok := resumedAny.(*LanePackRun)
	if !ok {
		t.Fatalf("ResumeAny returned %T, want *LanePackRun", resumedAny)
	}
	if resumed.Epoch() != 2 {
		t.Fatalf("resumed at epoch %d, paused at 2", resumed.Epoch())
	}
	res, err := resumed.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != ref.BestFitness || !res.Best.Bits.Equal(ref.Best.Bits) ||
		res.Migrations != ref.Migrations || res.Generations != ref.Generations {
		t.Fatalf("resumed lane pack %+v != uninterrupted %+v", res, ref)
	}
}

// TestLanePackSpecDefaultsTo64Demes: a lane-packed spec with no island
// count occupies every simulator lane.
func TestLanePackSpecDefaultsTo64Demes(t *testing.T) {
	spec := RunSpec{Kind: KindLanePack, Seed: 1, Population: 8, MaxGenerations: 5}
	runner, err := spec.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	lp := runner.(*LanePackRun)
	if got := lp.Params().Demes; got != DefaultLanePackDemes {
		t.Fatalf("defaulted to %d demes, want %d", got, DefaultLanePackDemes)
	}
}
