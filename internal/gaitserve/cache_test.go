package gaitserve_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"leonardo/internal/gaitserve"
	"leonardo/internal/repertoire"
)

// evolveSnap runs a small repertoire to its budget and returns its
// snapshot bytes — the artifact the cache decodes.
func evolveSnap(t *testing.T, seed uint64) []byte {
	t.Helper()
	r, err := repertoire.New(repertoire.Params{
		Headings: 8, Strides: 4, Cycles: 2,
		Batch: 32, MaxEvaluations: 1024, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return r.Snapshot()
}

// sameArchive asserts two decoded views answer every cell identically.
func sameArchive(t *testing.T, a, b *repertoire.Archive) {
	t.Helper()
	if a.Grid() != b.Grid() {
		t.Fatalf("grids differ: %+v vs %+v", a.Grid(), b.Grid())
	}
	af, at := a.Coverage()
	bf, bt := b.Coverage()
	if af != bf || at != bt {
		t.Fatalf("coverage differs: %d/%d vs %d/%d", af, at, bf, bt)
	}
	for i := 0; i < a.Grid().Cells(); i++ {
		if a.Filled(i) != b.Filled(i) || a.Cell(i) != b.Cell(i) {
			t.Fatalf("cell %d differs: (%v,%+v) vs (%v,%+v)",
				i, a.Filled(i), a.Cell(i), b.Filled(i), b.Cell(i))
		}
	}
}

// TestSingleflightDecodeOnce is the wall for the cache's core promise:
// N concurrent first-hit queries for the same run perform exactly one
// archive decode. Run under -race in CI's repeated-race job.
func TestSingleflightDecodeOnce(t *testing.T) {
	snap := evolveSnap(t, 21)
	c := gaitserve.NewCache(8)

	const N = 16
	var loads atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(N)
	archives := make([]*repertoire.Archive, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			archives[i], errs[i] = c.Get("r1", "h1", func() ([]byte, error) {
				loads.Add(1)
				return snap, nil
			})
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("Get %d: %v", i, errs[i])
		}
		if archives[i] != archives[0] {
			t.Fatalf("Get %d returned a different archive pointer", i)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Decodes != 1 {
		t.Fatalf("decodes = %d, want 1", st.Decodes)
	}
	if st.Misses != 1 || st.Hits != N-1 {
		t.Fatalf("misses=%d hits=%d, want 1 and %d", st.Misses, st.Hits, N-1)
	}
}

// TestEvictReloadIdentical: filling past the cap evicts the LRU entry,
// and reloading it decodes again into a view that answers every cell
// identically to the evicted one (the snapshot bytes are the identity).
func TestEvictReloadIdentical(t *testing.T) {
	snapA := evolveSnap(t, 22)
	snapB := evolveSnap(t, 23)
	c := gaitserve.NewCache(1)

	loadOf := func(snap []byte) func() ([]byte, error) {
		return func() ([]byte, error) { return snap, nil }
	}

	first, err := c.Get("ra", "ha", loadOf(snapA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("rb", "hb", loadOf(snapB)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after second insert: %+v, want 1 eviction and 1 entry", st)
	}

	again, err := c.Get("ra", "ha", loadOf(snapA))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("evicted entry was served without a reload")
	}
	sameArchive(t, first, again)
	if st := c.Stats(); st.Decodes != 3 {
		t.Fatalf("decodes = %d, want 3 (A, B, A again)", st.Decodes)
	}
}

// TestStaleHashReloads: a run that checkpointed again presents a new
// hash; the cached decode for the old hash must be dropped, not served.
func TestStaleHashReloads(t *testing.T) {
	snap1 := evolveSnap(t, 24)
	snap2 := evolveSnap(t, 25)
	c := gaitserve.NewCache(4)

	a1, err := c.Get("r1", "h1", func() ([]byte, error) { return snap1, nil })
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get("r1", "h2", func() ([]byte, error) { return snap2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("stale entry served for a new hash")
	}
	if st := c.Stats(); st.Decodes != 2 || st.Hits != 0 {
		t.Fatalf("decodes=%d hits=%d, want 2 and 0", st.Decodes, st.Hits)
	}
	// The new hash is now the cached one.
	a2b, err := c.Get("r1", "h2", func() ([]byte, error) {
		t.Error("loader ran for a cached hash")
		return nil, errors.New("unreachable")
	})
	if err != nil || a2b != a2 {
		t.Fatalf("re-get of new hash: (%p, %v), want cached %p", a2b, err, a2)
	}
}

// TestErrorsNotCached: a failed load (or a corrupt snapshot) must not
// poison the key — the next Get retries from scratch and succeeds.
func TestErrorsNotCached(t *testing.T) {
	snap := evolveSnap(t, 26)
	c := gaitserve.NewCache(4)

	boom := errors.New("spool read failed")
	if _, err := c.Get("r1", "h1", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed load left %d entries", c.Len())
	}

	if _, err := c.Get("r1", "h1", func() ([]byte, error) { return []byte("garbage"), nil }); err == nil {
		t.Fatal("corrupt snapshot decoded")
	}
	if c.Len() != 0 {
		t.Fatalf("corrupt decode left %d entries", c.Len())
	}

	a, err := c.Get("r1", "h1", func() ([]byte, error) { return snap, nil })
	if err != nil || a == nil {
		t.Fatalf("retry after failures: (%v, %v)", a, err)
	}
}

// TestInvalidate drops the entry so the next Get reloads.
func TestInvalidate(t *testing.T) {
	snap := evolveSnap(t, 27)
	c := gaitserve.NewCache(4)
	var loads atomic.Int64
	load := func() ([]byte, error) { loads.Add(1); return snap, nil }
	if _, err := c.Get("r1", "h1", load); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("r1")
	if c.Len() != 0 {
		t.Fatalf("Invalidate left %d entries", c.Len())
	}
	if _, err := c.Get("r1", "h1", load); err != nil {
		t.Fatal(err)
	}
	if n := loads.Load(); n != 2 {
		t.Fatalf("loader ran %d times, want 2", n)
	}
}

// TestConcurrentMixedKeys hammers a small cache with many goroutines
// across more runs than the cap holds — the invariants (no lost
// updates, every Get sees the right archive for its hash) must hold
// under -race with eviction churn.
func TestConcurrentMixedKeys(t *testing.T) {
	snaps := [][]byte{evolveSnap(t, 28), evolveSnap(t, 29), evolveSnap(t, 30)}
	wants := make([]*repertoire.Archive, len(snaps))
	for i, s := range snaps {
		a, err := repertoire.DecodeArchive(s)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = a
	}
	ids := []string{"r0", "r1", "r2"}
	hashes := []string{"h0", "h1", "h2"}

	c := gaitserve.NewCache(2) // smaller than the key set: constant churn
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(snaps)
				a, err := c.Get(ids[i], hashes[i], func() ([]byte, error) { return snaps[i], nil })
				if err != nil {
					t.Errorf("Get %s: %v", ids[i], err)
					return
				}
				wf, wt := wants[i].Coverage()
				af, at := a.Coverage()
				if af != wf || at != wt {
					t.Errorf("Get %s: coverage %d/%d, want %d/%d", ids[i], af, at, wf, wt)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 2 {
		t.Fatalf("cache holds %d entries, cap 2", c.Len())
	}
}

// TestCapHoldsAfterConcurrentMisses is the deterministic form of the
// cap invariant TestConcurrentMixedKeys samples: with cap 1, two misses
// for different runs are both in flight at once (their loaders block),
// so insert-time eviction can drop neither. Once both publish, the
// cache must be back within its cap.
func TestCapHoldsAfterConcurrentMisses(t *testing.T) {
	snap := evolveSnap(t, 31)
	c := gaitserve.NewCache(1)

	var started sync.WaitGroup
	release := make(chan struct{})
	load := func() ([]byte, error) {
		started.Done()
		<-release
		return snap, nil
	}
	started.Add(2)
	var done sync.WaitGroup
	for _, id := range []string{"r0", "r1"} {
		done.Add(1)
		go func(id string) {
			defer done.Done()
			if _, err := c.Get(id, "h-"+id, load); err != nil {
				t.Errorf("Get %s: %v", id, err)
			}
		}(id)
	}
	started.Wait() // both loaders hold their in-flight entries
	if n := c.Len(); n != 2 {
		t.Fatalf("%d entries with two misses in flight, want 2", n)
	}
	close(release)
	done.Wait()
	if n := c.Len(); n > 1 {
		t.Fatalf("cache holds %d entries after both misses published, cap 1", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("%d evictions, want 1", ev)
	}
}
