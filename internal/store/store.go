// Package store is a content-addressed artifact store: the durable
// home for finished snapshots and repertoire archives behind the serve
// layer's read path (DESIGN.md §15). Artifacts are immutable byte
// blobs named by their SHA-256:
//
//	<dir>/objects/<hh>/<hex>   one file per object, hh = hex[0:2]
//	<dir>/index.json           compacted base: name → hash, sorted JSON
//	<dir>/index.log            journal: one checksummed record per
//	                           Link or Unlink since the base
//
// The object namespace is append-only and self-verifying — Get rehashes
// what it reads, so a corrupt or truncated object can never be served
// as the artifact it claims to be — while mutability lives entirely in
// the index: a link is a stable logical name ("run/r000001/snap")
// pointing at whichever object currently backs it. Identical payloads
// dedup to one object however many links they have.
//
// The index is the base with the journal replayed over it in order.
// Link and Unlink append one record and fsync the journal before they
// return, so a mutation costs the same however many names the index
// holds. When the journal reaches 1024 records and twice the live name
// count, the next mutation first compacts: it writes the state the
// journal describes as the new base (temp, sync, rename, directory
// sync), cuts the journal, and only then appends its own record. Every
// record is an absolute name → hash assignment, so a crash between the
// rename and the cut replays records the base already holds and lands
// on the same state. Open replays at most max(1024, 2·live) records and
// stays O(live names). A torn final record (no newline) was never
// acknowledged; Open drops it and truncates it away. A complete record
// that fails its checksum is corruption, and Open refuses it as it
// refuses a corrupt base. A binary built before the journal existed
// reads index.json alone: it would ignore index.log, and its Open-time
// GC would reap the objects linked only there.
//
// Garbage collection is ref-counted from the index. Relinking a name
// drops the previous object as soon as its last link goes; a crash
// between an object write and its index link leaves an orphan, which
// the next GC (run at every Open) reaps. The write order makes every
// crash window safe: object bytes and their directory entry land and
// sync before a record names them, and a record forgets an object
// before its file is unlinked, so the index never points at bytes that
// do not exist.
//
// The store never reads clocks or draws randomness, and every listing
// it returns is sorted; it is safe to call from replay-critical code.
//
//leo:deterministic
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the store. ErrNotFound covers both a missing
// object and an unlinked name.
var (
	// ErrNotFound reports a hash with no object or a name with no link.
	ErrNotFound = errors.New("store: not found")
	// ErrCorrupt reports an object file whose bytes no longer hash to
	// its name — disk corruption, truncation, or tampering.
	ErrCorrupt = errors.New("store: object corrupt")
)

// Hash is the SHA-256 content address of an object.
type Hash [sha256.Size]byte

// HashOf returns the content address of a payload.
func HashOf(data []byte) Hash { return sha256.Sum256(data) }

// Hex renders the address as lowercase hex — the object's file name
// and its wire form (snapshot ETags).
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// ParseHex parses a lowercase-hex content address.
func ParseHex(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return Hash{}, fmt.Errorf("store: %q is not a sha256 address", s)
	}
	copy(h[:], b)
	return h, nil
}

// Store is the handle on one artifact directory. All methods are safe
// for concurrent use; index mutations serialize on one mutex and each
// is durable (its journal record written and synced) before the method
// returns.
type Store struct {
	dir string

	mu       sync.Mutex
	names    map[string]Hash // the index: logical name → object
	refs     map[Hash]int    // links per object, derived from names
	logSize  int64           // bytes of whole records in index.log
	records  int             // whole records in index.log
	logDirty bool            // a failed append may have left bytes past logSize
}

// Open creates (or reopens) a store rooted at dir, loads the base index
// and replays its journal, and reaps any orphaned objects a previous
// crash left behind. An unreadable base or a corrupt journal record is
// a hard error — refusing to boot beats silently garbage-collecting
// every artifact the lost index still named.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:   dir,
		names: make(map[string]Hash),
		refs:  make(map[Hash]int),
	}
	if err := s.loadBase(); err != nil {
		return nil, err
	}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	for _, h := range s.names {
		s.refs[h]++
	}
	if _, err := s.GC(); err != nil {
		return nil, err
	}
	return s, nil
}

// objectPath shards objects by the first hex byte so no single
// directory grows unbounded.
func (s *Store) objectPath(h Hash) string {
	hx := h.Hex()
	return filepath.Join(s.dir, "objects", hx[:2], hx)
}

// Put writes a payload as an object and returns its address. It is
// idempotent — an object that already exists is not rewritten — and
// atomic: the bytes land in a temp file, sync, and rename onto the
// final name, so a reader or a crash never observes a partial object.
// The shard directory is synced after the rename, so the object's
// entry is durable before any journal record can name it.
func (s *Store) Put(data []byte) (Hash, error) {
	h := HashOf(data)
	path := s.objectPath(h)
	if _, err := os.Stat(path); err == nil {
		return h, nil // dedup: content addressing makes equality free
	}
	shard := filepath.Dir(path)
	if err := os.Mkdir(shard, 0o755); err == nil {
		// A new shard's own entry must be durable before its objects'.
		if err := syncDir(filepath.Dir(shard)); err != nil {
			return Hash{}, fmt.Errorf("store: put: %w", err)
		}
	} else if !errors.Is(err, fs.ErrExist) {
		return Hash{}, fmt.Errorf("store: put: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return Hash{}, fmt.Errorf("store: put: %w", err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return Hash{}, fmt.Errorf("store: put: %w", errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return Hash{}, fmt.Errorf("store: put: %w", err)
	}
	if err := syncDir(shard); err != nil {
		return Hash{}, fmt.Errorf("store: put: %w", err)
	}
	return h, nil
}

// Get reads an object and verifies it still hashes to its address, so
// a corrupt file surfaces as ErrCorrupt instead of as wrong bytes.
func (s *Store) Get(h Hash) ([]byte, error) {
	data, err := os.ReadFile(s.objectPath(h))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: object %s: %w", h.Hex(), ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: object %s: %w", h.Hex(), err)
	}
	if HashOf(data) != h {
		return nil, fmt.Errorf("store: object %s: %w", h.Hex(), ErrCorrupt)
	}
	return data, nil
}

// Has reports whether the object exists on disk.
func (s *Store) Has(h Hash) bool {
	_, err := os.Stat(s.objectPath(h))
	return err == nil
}

// Link points a logical name at an object, replacing any previous
// target. Its journal record is durable before Link returns; if the
// replaced object just lost its last link, its file is removed
// afterwards (a crash in between leaves an orphan for GC, never a
// dangling link).
func (s *Store) Link(name string, h Hash) error {
	if name == "" {
		return errors.New("store: empty link name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Checked under the lock: a concurrent unref cannot delete the
	// object between the check and the record.
	if !s.Has(h) {
		return fmt.Errorf("store: link %s: object %s: %w", name, h.Hex(), ErrNotFound)
	}
	prev, had := s.names[name]
	if had && prev == h {
		return nil
	}
	if err := s.logLocked(record(name, h, true)); err != nil {
		return err
	}
	s.names[name] = h
	s.refs[h]++
	if had {
		s.unrefLocked(prev)
	}
	return nil
}

// Unlink removes a logical name; the object is deleted once nothing
// else references it. Unlinking an unknown name is ErrNotFound.
func (s *Store) Unlink(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.names[name]
	if !ok {
		return fmt.Errorf("store: link %s: %w", name, ErrNotFound)
	}
	if err := s.logLocked(record(name, Hash{}, false)); err != nil {
		return err
	}
	delete(s.names, name)
	s.unrefLocked(h)
	return nil
}

// unrefLocked drops one link to h and removes the object once none
// remain. Callers run it only after the record that dropped the link is
// durable.
func (s *Store) unrefLocked(h Hash) {
	s.refs[h]--
	if s.refs[h] == 0 {
		delete(s.refs, h)
		os.Remove(s.objectPath(h)) // best-effort; GC reaps stragglers
	}
}

// Resolve returns the object a name currently links to.
func (s *Store) Resolve(name string) (Hash, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.names[name]
	return h, ok
}

// Names returns every linked name with the given prefix, sorted.
//
//leo:allow maprange keys are collected then sorted; output order is the sort, not the iteration
func (s *Store) Names(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.names))
	for name := range s.names {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Refs returns how many links point at an object (0 = orphan or gone).
func (s *Store) Refs(h Hash) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[h]
}

// GC removes every object the index does not reference — the orphans a
// crash between Put and Link (or a failed delete) leaves behind — and
// returns how many it reaped. It walks the sorted object listing, so
// its delete order is deterministic.
func (s *Store) GC() (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	root := filepath.Join(s.dir, "objects")
	shards, err := os.ReadDir(root)
	if err != nil {
		return 0, fmt.Errorf("store: gc: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(root, shard.Name()))
		if err != nil {
			return removed, fmt.Errorf("store: gc: %w", err)
		}
		for _, obj := range objs {
			name := obj.Name()
			if strings.HasPrefix(name, ".tmp-") {
				// Torn temp file from a crashed Put.
				os.Remove(filepath.Join(root, shard.Name(), name))
				removed++
				continue
			}
			h, err := ParseHex(name)
			if err != nil {
				continue // foreign file; leave it alone
			}
			if s.refs[h] > 0 {
				continue
			}
			if err := os.Remove(filepath.Join(root, shard.Name(), name)); err != nil {
				return removed, fmt.Errorf("store: gc: %w", err)
			}
			removed++
		}
	}
	return removed, nil
}
