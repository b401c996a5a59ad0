package serve_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"leonardo"
	"leonardo/internal/serve"
)

// The gap specs below use Steps = 7: an odd step count whose perfect
// fitness is unreachable, so the run never converges and its duration
// is exactly MaxGenerations — interruption points become deterministic
// instead of racing convergence.

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runRef drives a spec to completion in-process and returns its final
// snapshot — the uninterrupted reference trajectory.
func runRef(t *testing.T, spec leonardo.RunSpec) []byte {
	t.Helper()
	r, err := spec.NewRunner()
	if err != nil {
		t.Fatalf("reference %s: %v", spec.Kind, err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatalf("reference %s: %v", spec.Kind, err)
		}
	}
	return r.Snapshot()
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 2, SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 3, Steps: 4, MaxGenerations: 500}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != leonardo.KindGAP || info.ID == "" {
		t.Fatalf("submit info = %+v", info)
	}
	waitFor(t, 10*time.Second, "run to finish", func() bool {
		got, err := m.Get(info.ID)
		return err == nil && got.State == serve.StateDone
	})
	got, _ := m.Get(info.ID)
	if got.Event.Generation == 0 {
		t.Fatalf("done run reports generation 0: %+v", got.Event)
	}
	// The managed trajectory matches an unmanaged one bit for bit.
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref := runRef(t, spec); !bytes.Equal(snap, ref) {
		t.Fatalf("managed snapshot (%d bytes) differs from reference (%d bytes)", len(snap), len(ref))
	}
}

func TestSubmitBadSpec(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, spec := range []leonardo.RunSpec{
		{},                                       // no kind
		{Kind: "bogus", Seed: 1},                 // unknown kind
		{Kind: leonardo.KindCircuit},             // circuit without generations
		{Kind: leonardo.KindGAP, Population: -5}, // invalid GA parameter
	} {
		if _, err := m.Submit(spec); !errors.Is(err, serve.ErrBadSpec) {
			t.Errorf("Submit(%+v) = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestBackpressureAndCancel(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	long := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 1, Steps: 7, MaxGenerations: 50_000_000}

	running, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first run to start", func() bool {
		got, _ := m.Get(running.ID)
		return got.State == serve.StateRunning
	})
	queued, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Get(queued.ID); got.State != serve.StateQueued {
		t.Fatalf("second run state = %s, want queued", got.State)
	}
	// The queue is at depth: the third submission is rejected, not
	// buffered.
	if _, err := m.Submit(long); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}

	// Cancelling the queued run frees the slot synchronously.
	info, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != serve.StateCancelled {
		t.Fatalf("cancelled queued run state = %s", info.State)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, serve.ErrFinished) {
		t.Fatalf("re-cancel = %v, want ErrFinished", err)
	}

	// Cancelling the running run lands at the next generation boundary.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "running run to cancel", func() bool {
		got, _ := m.Get(running.ID)
		return got.State == serve.StateCancelled
	})

	if _, err := m.Cancel("r999999"); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
}

// TestResumeOnBoot is the crash-safety core: a run interrupted by a
// manager shutdown resumes from its spool snapshot under a new manager
// and finishes on the exact trajectory of an uninterrupted run.
func TestResumeOnBoot(t *testing.T) {
	dir := t.TempDir()
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 7, Steps: 7, MaxGenerations: 20000}
	ref := runRef(t, spec)

	m1, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "mid-run progress", func() bool {
		got, _ := m1.Get(info.ID)
		return got.Event.Generation >= 1000
	})
	m1.Close() // SIGTERM path: checkpoint and mark interrupted

	got, err := m1.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateInterrupted {
		t.Fatalf("state after shutdown = %s, want interrupted", got.State)
	}
	if got.Event.Generation >= spec.MaxGenerations {
		t.Fatalf("run finished before shutdown (gen %d); interruption never happened", got.Event.Generation)
	}
	interruptedGen := got.Event.Generation

	m2, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err = m2.Get(info.ID)
	if err != nil {
		t.Fatalf("registry lost the run across restart: %v", err)
	}
	if !got.Resumed {
		t.Fatalf("run not flagged resumed: %+v", got)
	}
	if got.Event.Generation == 0 || got.Event.Generation > interruptedGen {
		t.Fatalf("resumed at generation %d, interrupted at %d", got.Event.Generation, interruptedGen)
	}
	waitFor(t, 60*time.Second, "resumed run to finish", func() bool {
		g, _ := m2.Get(info.ID)
		return g.State == serve.StateDone
	})
	snap, err := m2.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, ref) {
		t.Fatalf("resumed trajectory diverged: snapshot %d bytes vs reference %d bytes", len(snap), len(ref))
	}
}

// TestReloadKeepsTerminalRuns: terminal registry entries survive a
// restart as records, and their spooled snapshots stay readable.
func TestReloadKeepsTerminalRuns(t *testing.T) {
	dir := t.TempDir()
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 3, Steps: 4, MaxGenerations: 300}

	m1, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "run to finish", func() bool {
		got, _ := m1.Get(info.ID)
		return got.State == serve.StateDone
	})
	m1.Close()

	m2, err := serve.New(serve.Config{Spool: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDone {
		t.Fatalf("terminal run reloaded as %s", got.State)
	}
	snap, err := m2.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := leonardo.SnapshotKind(snap); err != nil || kind != leonardo.KindGAP {
		t.Fatalf("reloaded snapshot kind = %q, %v", kind, err)
	}
	if len(m2.List()) != 1 {
		t.Fatalf("registry size %d after reload, want 1", len(m2.List()))
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 1}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestSubmitLanePackRun proves leonardod's run manager drives the
// lane-packed archipelago kind end to end: submit, run to completion
// on the worker pool, and match the unmanaged reference trajectory bit
// for bit through the periodic checkpoints.
func TestSubmitLanePackRun(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 2, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := leonardo.RunSpec{Kind: leonardo.KindLanePack, Seed: 11,
		Islands: 4, Population: 8, MigrateEvery: 5, MaxGenerations: 20}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != leonardo.KindLanePack {
		t.Fatalf("submit info = %+v", info)
	}
	waitFor(t, 30*time.Second, "lane-packed run to finish", func() bool {
		got, err := m.Get(info.ID)
		return err == nil && got.State == serve.StateDone
	})
	got, _ := m.Get(info.ID)
	if got.Event.Generation != 20 {
		t.Fatalf("done run reports generation %d, want the 20-generation budget", got.Event.Generation)
	}
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref := runRef(t, spec); !bytes.Equal(snap, ref) {
		t.Fatalf("managed snapshot (%d bytes) differs from reference (%d bytes)", len(snap), len(ref))
	}
}

// TestSubmitRepertoireRun proves the manager drives the MAP-Elites
// repertoire kind end to end: submit a "repertoire" spec with a "HxS"
// grid, run it to its evaluation budget on the worker pool, and match
// the unmanaged reference archive bit for bit.
func TestSubmitRepertoireRun(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 2, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := leonardo.RunSpec{Kind: leonardo.KindRepertoire, Seed: 7,
		Grid: "8x4", Batch: 32, Evaluations: 2000}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != leonardo.KindRepertoire {
		t.Fatalf("submit info = %+v", info)
	}
	waitFor(t, 30*time.Second, "repertoire run to finish", func() bool {
		got, err := m.Get(info.ID)
		return err == nil && got.State == serve.StateDone
	})
	got, _ := m.Get(info.ID)
	if got.Event.Evaluations < 2000 {
		t.Fatalf("done run reports %d evaluations, want the 2000 budget", got.Event.Evaluations)
	}
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := leonardo.SnapshotKind(snap); err != nil || kind != leonardo.KindRepertoire {
		t.Fatalf("managed snapshot kind = %q, %v", kind, err)
	}
	if ref := runRef(t, spec); !bytes.Equal(snap, ref) {
		t.Fatalf("managed snapshot (%d bytes) differs from reference (%d bytes)", len(snap), len(ref))
	}
	// The finished archive resumes and answers behaviour queries.
	runner, err := leonardo.ResumeAny(snap)
	if err != nil {
		t.Fatal(err)
	}
	run := runner.(*leonardo.RepertoireRun)
	if filled, total := run.Coverage(); filled < 1 || total != 32 {
		t.Fatalf("resumed archive coverage %d/%d", filled, total)
	}
}
