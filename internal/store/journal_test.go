package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"leonardo/internal/store"
)

// compactMin mirrors the store's compaction threshold: the journal
// record count at which the next mutation compacts first (when the
// journal also holds twice the live name count).
const compactMin = 1024

// state is the model of an index: logical name → object.
type state map[string]store.Hash

func (st state) clone() state {
	out := make(state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// baseBytes renders a state as the store writes its base: sorted,
// indented JSON of name → hex.
func baseBytes(t testing.TB, st state) []byte {
	t.Helper()
	wire := make(map[string]string, len(st))
	for name, h := range st {
		wire[name] = h.Hex()
	}
	data, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkState requires s to hold exactly want, and every linked object
// to read back through Get's hash check.
func checkState(t testing.TB, s *store.Store, want state, what string) {
	t.Helper()
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	got := s.Names("")
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("%s: Names = %v, want %v", what, got, names)
	}
	for _, name := range names {
		h, ok := s.Resolve(name)
		if !ok || h != want[name] {
			t.Fatalf("%s: Resolve(%s) = (%s, %v), want %s", what, name, h.Hex(), ok, want[name].Hex())
		}
		if _, err := s.Get(h); err != nil {
			t.Fatalf("%s: linked object %s: %v", what, name, err)
		}
	}
}

// objectPool is a directory holding every payload a test links, from
// which staged stores hard-link their objects: GC in a staged store
// removes only its own links, never the pool's files.
type objectPool struct {
	dir    string
	hashes []store.Hash
}

func newObjectPool(t testing.TB, payloads [][]byte) *objectPool {
	t.Helper()
	p := &objectPool{dir: t.TempDir()}
	s, err := store.Open(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range payloads {
		h, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		p.hashes = append(p.hashes, h)
	}
	return p
}

// stage lays out dir as a store holding every pool object, the given
// base and the given journal (each absent when nil). It reuses what an
// earlier stage of dir left: only objects a GC reaped are linked again.
func (p *objectPool) stage(t testing.TB, dir string, base, journal []byte) {
	t.Helper()
	for _, h := range p.hashes {
		rel := filepath.Join("objects", h.Hex()[:2], h.Hex())
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Link(filepath.Join(p.dir, rel), filepath.Join(dir, rel)); err != nil && !os.IsExist(err) {
			t.Fatal(err)
		}
	}
	for file, data := range map[string][]byte{"index.json": base, "index.log": journal} {
		path := filepath.Join(dir, file)
		var err error
		if data == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
}

// journalRun is the recorded outcome of crashOps on a real store.
type journalRun struct {
	pool *objectPool
	// preJournal and preState are the journal and the state just before
	// the last compacting mutation; base is the base it wrote.
	preJournal []byte
	preState   state
	base       []byte
	// journal is the final journal; bounds[i] is its length after the
	// i-th record since the compaction, with states[i] the state then
	// (bounds[0] = 0 and states[0] = preState).
	journal []byte
	bounds  []int64
	states  []state
}

// crashOps applies a fixed, seeded sequence of Link and Unlink calls,
// each of which changes the index and so appends exactly one record,
// past one compaction and tail records beyond it.
func crashOps(t *testing.T, tail int) journalRun {
	t.Helper()
	const names, objects = 8, 6
	var payloads [][]byte
	for i := 0; i < objects; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("crash-wall payload %d", i)))
	}
	run := journalRun{pool: newObjectPool(t, payloads)}
	dir := t.TempDir()
	s := open(t, dir)
	logPath := filepath.Join(dir, "index.log")
	size := func() int64 {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	rng := rand.New(rand.NewSource(12))
	model := state{}
	compactions := 0
	for i := 0; i < compactMin+tail; i++ {
		before, err := os.ReadFile(logPath)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		prev := model.clone()
		name := fmt.Sprintf("run/n%d", rng.Intn(names))
		if _, linked := model[name]; linked && rng.Intn(6) == 0 {
			if err := s.Unlink(name); err != nil {
				t.Fatal(err)
			}
			delete(model, name)
		} else {
			obj := rng.Intn(objects)
			if model[name] == run.pool.hashes[obj] {
				obj = (obj + 1) % objects
			}
			// Re-Put: the object may have been dropped with its last link.
			h, err := s.Put(payloads[obj])
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Link(name, h); err != nil {
				t.Fatal(err)
			}
			model[name] = h
		}
		if n := size(); n < int64(len(before)) {
			compactions++
			run.preJournal, run.preState = before, prev
			run.bounds, run.states = []int64{0}, []state{prev}
			if run.base, err = os.ReadFile(filepath.Join(dir, "index.json")); err != nil {
				t.Fatal(err)
			}
		}
		if run.bounds != nil {
			run.bounds = append(run.bounds, size())
			run.states = append(run.states, model.clone())
		}
	}
	if compactions != 1 {
		t.Fatalf("sequence compacted %d times, want 1", compactions)
	}
	var err error
	if run.journal, err = os.ReadFile(logPath); err != nil {
		t.Fatal(err)
	}
	checkState(t, open(t, dir), model, "reopen after the sequence")
	return run
}

// TestJournalCrashWall replays one seeded mutation sequence across a
// compaction and crashes it at every point the journal can be cut,
// between compaction's base rename and its journal cut, and under
// bit rot in any record before the tail.
func TestJournalCrashWall(t *testing.T) {
	run := crashOps(t, 40)
	if len(run.preJournal) == 0 || len(run.bounds) != 41 {
		t.Fatalf("recorded %d bytes before compaction and %d bounds after", len(run.preJournal), len(run.bounds))
	}
	// Compaction wrote the state its journal described, without the
	// mutation that triggered it, as sorted deterministic JSON.
	if want := baseBytes(t, run.preState); !bytes.Equal(run.base, want) {
		t.Fatalf("compacted base differs from the pre-compaction state:\n%s\nwant\n%s", run.base, want)
	}
	work := filepath.Join(t.TempDir(), "store")

	t.Run("cut-at-every-byte", func(t *testing.T) {
		last := len(run.bounds) - 1
		for cut := 0; cut <= len(run.journal); cut++ {
			k := sort.Search(len(run.bounds), func(i int) bool { return run.bounds[i] > int64(cut) }) - 1
			run.pool.stage(t, work, run.base, run.journal[:cut])
			s, err := store.Open(work)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			what := fmt.Sprintf("cut %d (after record %d)", cut, k)
			checkState(t, s, run.states[k], what)
			fi, err := os.Stat(filepath.Join(work, "index.log"))
			if err != nil || fi.Size() != run.bounds[k] {
				t.Fatalf("%s: journal not truncated to its last whole record (%v, %v)", what, fi, err)
			}
			// Inside the tail record, show the next append lands cleanly
			// where the torn bytes were.
			if k == last-1 && int64(cut) > run.bounds[k] {
				want := run.states[k].clone()
				h := run.pool.hashes[0]
				if err := s.Link("after/crash", h); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want["after/crash"] = h
				checkState(t, open(t, work), want, what+" + Link")
			}
		}
	})

	t.Run("new-base-old-journal", func(t *testing.T) {
		run.pool.stage(t, work, run.base, run.preJournal)
		checkState(t, open(t, work), run.preState, "new base + uncut journal")
		run.pool.stage(t, work, nil, run.preJournal)
		checkState(t, open(t, work), run.preState, "uncut journal alone")
	})

	t.Run("flipped-byte-before-tail", func(t *testing.T) {
		tail := run.bounds[len(run.bounds)-2]
		for off := int64(0); off < tail; off++ {
			for _, mask := range []byte{0x01, 0xff} {
				bad := bytes.Clone(run.journal)
				bad[off] ^= mask
				run.pool.stage(t, work, run.base, bad)
				if _, err := store.Open(work); err == nil {
					t.Fatalf("Open accepted a journal with byte %d ^ %#x before the tail record", off, mask)
				}
			}
		}
	})
}

// seedLegacy lays out a store the way a journal-less binary left it:
// n names run/nNNNNN (and the pins pin/0, pin/1) in index.json alone.
// Every run/ name links objects[0]; pin/i links objects[i].
func seedLegacy(t testing.TB, dir string, n int) (objects [2]store.Hash) {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := state{}
	for i := range objects {
		if objects[i], err = s.Put([]byte(fmt.Sprintf("legacy object %d", i))); err != nil {
			t.Fatal(err)
		}
		st[fmt.Sprintf("pin/%d", i)] = objects[i]
	}
	for i := 0; i < n; i++ {
		st[fmt.Sprintf("run/n%05d", i)] = objects[0]
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), baseBytes(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	return objects
}

// TestOpenLegacyBaseOnly: a store holding only index.json opens to the
// same names and links, and reading it writes no journal.
func TestOpenLegacyBaseOnly(t *testing.T) {
	dir := t.TempDir()
	objects := seedLegacy(t, dir, 3)
	want := state{"pin/0": objects[0], "pin/1": objects[1]}
	for i := 0; i < 3; i++ {
		want[fmt.Sprintf("run/n%05d", i)] = objects[0]
	}
	checkState(t, open(t, dir), want, "legacy store")
	if _, err := os.Stat(filepath.Join(dir, "index.log")); !os.IsNotExist(err) {
		t.Fatalf("opening a legacy store created a journal: %v", err)
	}
}

// TestLinkBytesIndependentOfIndexSize: a Link appends the same bytes
// to the journal at 10 and at 10,000 live names, and leaves the base
// alone between compactions.
func TestLinkBytesIndependentOfIndexSize(t *testing.T) {
	written := map[int]int64{}
	for _, n := range []int{10, 10000} {
		dir := t.TempDir()
		objects := seedLegacy(t, dir, n)
		base, err := os.ReadFile(filepath.Join(dir, "index.json"))
		if err != nil {
			t.Fatal(err)
		}
		s := open(t, dir)
		for i := 0; i < 3; i++ {
			if err := s.Link(fmt.Sprintf("run/n%05d", i), objects[1]); err != nil {
				t.Fatal(err)
			}
		}
		fi, err := os.Stat(filepath.Join(dir, "index.log"))
		if err != nil {
			t.Fatal(err)
		}
		written[n] = fi.Size()
		if after, err := os.ReadFile(filepath.Join(dir, "index.json")); err != nil || !bytes.Equal(after, base) {
			t.Fatalf("%d names: Link rewrote the base (%v)", n, err)
		}
	}
	if written[10] == 0 || written[10] != written[10000] {
		t.Fatalf("journal bytes for 3 Links: %d at 10 names, %d at 10,000", written[10], written[10000])
	}
}

// BenchmarkLink relinks names in an index of 100 and of 10,000 live
// names; ns/op stays flat because a Link appends one record.
func BenchmarkLink(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			objects := seedLegacy(b, dir, n)
			s, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each pass over the names flips every link to the other
				// object, so every call appends a record.
				if err := s.Link(fmt.Sprintf("run/n%05d", i%n), objects[(i/n+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzIndexLog opens arbitrary journal bytes over a small base. Open
// must return an error or a store whose every link reads back through
// Get's hash check, and whose torn tail (if any) is gone: one more Link
// survives a reopen with everything else unchanged. A record naming an
// object outside the pool would need a forged CRC-32C.
func FuzzIndexLog(f *testing.F) {
	pool := newObjectPool(f, [][]byte{[]byte("fuzz a"), []byte("fuzz b"), []byte("fuzz c")})
	ha, hb, hc := pool.hashes[0], pool.hashes[1], pool.hashes[2]
	base := baseBytes(f, state{"a": ha, "b": hb})

	// Seed with a journal a real store wrote over the same base.
	dir := filepath.Join(f.TempDir(), "seed")
	pool.stage(f, dir, base, nil)
	s, err := store.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put([]byte("fuzz c")); err != nil { // Open reaped the unlinked c
		f.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return s.Link("c", hc) },
		func() error { return s.Link("run/\n\"quoted\"", hb) },
		func() error { return s.Unlink("a") },
		func() error { return s.Link("b", hc) },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7])
	f.Add(append(bytes.Clone(journal), journal[:30]...))
	f.Add([]byte{})
	f.Add([]byte("00000000 L zz \"x\"\n"))

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := filepath.Join(t.TempDir(), "store")
		pool.stage(t, dir, base, journal)
		s, err := store.Open(dir)
		if err != nil {
			return
		}
		want := state{}
		for _, name := range s.Names("") {
			want[name], _ = s.Resolve(name)
		}
		checkState(t, s, want, "fuzzed journal")
		if _, err := s.Put([]byte("fuzz a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Link("fuzz/probe", ha); err != nil {
			t.Fatal(err)
		}
		want["fuzz/probe"] = ha
		s2, err := store.Open(dir)
		if err != nil {
			t.Fatalf("reopen after one Link: %v", err)
		}
		checkState(t, s2, want, "reopen after one Link")
	})
}
