package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leonardo"
	"leonardo/internal/serve"
	"leonardo/internal/store"
)

// assertListOrder pins the List contract: ordered by submission time,
// id as the tiebreak. The check parses the stamps back to time.Time —
// the sort must be chronological, not lexicographic on the strings.
func assertListOrder(t *testing.T, infos []serve.Info) {
	t.Helper()
	for i := 1; i < len(infos); i++ {
		a, b := infos[i-1], infos[i]
		at, err := time.Parse(time.RFC3339Nano, a.Submitted)
		if err != nil {
			t.Fatalf("run %s submitted stamp %q: %v", a.ID, a.Submitted, err)
		}
		bt, err := time.Parse(time.RFC3339Nano, b.Submitted)
		if err != nil {
			t.Fatalf("run %s submitted stamp %q: %v", b.ID, b.Submitted, err)
		}
		if at.After(bt) {
			t.Fatalf("list out of order: %s (%s) before %s (%s)", a.ID, a.Submitted, b.ID, b.Submitted)
		}
		if at.Equal(bt) && a.ID >= b.ID {
			t.Fatalf("list tiebreak violated: %s before %s at %s", a.ID, b.ID, a.Submitted)
		}
	}
}

// TestListDeterministicOrder: List is sorted by (submission time, id),
// in a live manager and — the case admission order alone cannot cover —
// after a reload rebuilt the registry from directory listings.
func TestListDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	m, err := serve.New(serve.Config{Spool: dir, Workers: 2, SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 3, Steps: 4, MaxGenerations: 200}
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		spec.Seed = uint64(i + 1)
		info, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	list := m.List()
	if len(list) != 4 {
		t.Fatalf("list has %d runs, want 4", len(list))
	}
	assertListOrder(t, list)
	for i, info := range list {
		if info.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s (submission order)", i, info.ID, ids[i])
		}
	}
	waitFor(t, 10*time.Second, "all runs to finish", func() bool {
		for _, info := range m.List() {
			if !info.State.Terminal() {
				return false
			}
		}
		return true
	})
	m.Close()

	m2, err := serve.New(serve.Config{Spool: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	reloaded := m2.List()
	if len(reloaded) != 4 {
		t.Fatalf("reloaded list has %d runs, want 4", len(reloaded))
	}
	assertListOrder(t, reloaded)
	for i, info := range reloaded {
		if info.ID != ids[i] {
			t.Fatalf("reloaded list[%d] = %s, want %s", i, info.ID, ids[i])
		}
	}
}

// TestCancelQueuedNeverDispatched: cancelling a run that is still in
// the admission queue finalizes it immediately — cancelled, never
// started, no driver goroutine ever touches it — and the queue slot is
// freed for later submissions.
func TestCancelQueuedNeverDispatched(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1, QueueDepth: 2, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	long := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 1, Steps: 7, MaxGenerations: 50_000_000}
	first, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first run to occupy the worker", func() bool {
		info, _ := m.Get(first.ID)
		return info.State == serve.StateRunning
	})
	queued, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, m, queued.ID); st != serve.StateQueued {
		t.Fatalf("second run is %s, want queued behind the single worker", st)
	}

	info, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != serve.StateCancelled {
		t.Fatalf("cancelled queued run is %s, want cancelled immediately (no async driver involved)", info.State)
	}
	if info.Started != "" || info.Finished == "" {
		t.Fatalf("cancelled queued run started=%q finished=%q; it must finalize without ever starting", info.Started, info.Finished)
	}
	if _, err := m.Cancel(queued.ID); err == nil {
		t.Fatal("second cancel of a finalized run succeeded, want ErrFinished")
	}
	if depth := m.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth after cancelling the only queued run = %d", depth)
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
}

func stateOf(t *testing.T, m *serve.Manager, id string) serve.State {
	t.Helper()
	info, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return info.State
}

// TestReloadStaleMetaMissingSnap: a spool can hold a non-terminal
// .meta.json whose .snap never made it to disk (crash before the first
// checkpoint, or the snapshot file was lost). The reload must fall back
// to rebuilding the run fresh from its spec — queued, not resumed, not
// failed — and drive it to completion bit-identically to a fresh run.
func TestReloadStaleMetaMissingSnap(t *testing.T) {
	dir := t.TempDir()
	m, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 9, Steps: 7, MaxGenerations: 50_000_000}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "run to start and checkpoint", func() bool {
		_, err := m.Snapshot(info.ID)
		return err == nil
	})
	m.Close() // interrupted; meta says so and a snapshot is linked

	// Stale the meta: unlink the run's snapshot from the store (and let
	// the store's GC reap the object) as if it had never been written.
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Unlink(info.ID); err != nil {
		t.Fatalf("unlinking the snapshot to stale the meta: %v", err)
	}
	if _, err := st.GC(); err != nil {
		t.Fatal(err)
	}

	m2, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State == serve.StateFailed {
		t.Fatalf("run with stale meta failed on reload: %s", got.Error)
	}
	if got.Resumed {
		t.Fatal("run with no snapshot on disk claims to be resumed")
	}
	waitFor(t, 10*time.Second, "rebuilt run to start from scratch", func() bool {
		info, _ := m2.Get(info.ID)
		return info.State == serve.StateRunning
	})
	if _, err := m2.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "rebuilt run to finish", func() bool {
		info, _ := m2.Get(info.ID)
		return info.State.Terminal()
	})
	if st := stateOf(t, m2, info.ID); st != serve.StateCancelled {
		t.Fatalf("rebuilt run ended %s, want cancelled", st)
	}
}

// TestSubmitToFreeWorkerWritesOneMeta: a run admitted straight to a
// free worker is on disk, as running, when Submit returns — one valid
// .meta.json and nothing else in the spool. A crash right then (the
// spool copied before any checkpoint) reloads the run from its spec and
// drives it to the uninterrupted trajectory.
func TestSubmitToFreeWorkerWritesOneMeta(t *testing.T) {
	dir := t.TempDir()
	m, err := serve.New(serve.Config{Spool: dir, Workers: 1, SnapshotEvery: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 5, Steps: 7, MaxGenerations: 3000}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != serve.StateRunning {
		t.Fatalf("run admitted to a free worker is %s, want running", info.State)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var metas []string
	for _, e := range entries {
		if e.Name() != "store" {
			metas = append(metas, e.Name())
		}
	}
	if len(metas) != 1 || metas[0] != info.ID+".meta.json" {
		t.Fatalf("spool after Submit holds %v, want exactly %s.meta.json", metas, info.ID)
	}
	data, err := os.ReadFile(filepath.Join(dir, metas[0]))
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	var mt struct {
		ID    string      `json:"id"`
		State serve.State `json:"state"`
	}
	if err := json.Unmarshal(data, &mt); err != nil || mt.ID != info.ID || mt.State != serve.StateRunning {
		t.Fatalf("meta after Submit = %+v (%v), want %s running", mt, err, info.ID)
	}

	crashed := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashed, metas[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := serve.New(serve.Config{Spool: crashed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitFor(t, 30*time.Second, "reloaded run to finish", func() bool {
		return stateOf(t, m2, info.ID).Terminal()
	})
	if st := stateOf(t, m2, info.ID); st != serve.StateDone {
		t.Fatalf("reloaded run ended %s, want done", st)
	}
	snap, err := m2.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, runRef(t, spec)) {
		t.Fatal("reloaded run's final snapshot differs from the uninterrupted reference")
	}
}

// TestFinishedRunSkipsDuplicateCheckpoint: a run that finishes on a
// stride boundary was checkpointed by that stride; the driver writes no
// second, identical checkpoint, and the served snapshot is unchanged.
func TestFinishedRunSkipsDuplicateCheckpoint(t *testing.T) {
	m, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1, SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: 4, Steps: 7, MaxGenerations: 200}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "run to finish", func() bool {
		return stateOf(t, m, info.ID).Terminal()
	})
	var buf bytes.Buffer
	m.WriteMetrics(&buf)
	const want = "leonardod_snapshot_latency_seconds_count 4\n" // generations 50, 100, 150, 200
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, buf.String())
	}
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, runRef(t, spec)) {
		t.Fatal("final snapshot differs from the uninterrupted reference")
	}
}
