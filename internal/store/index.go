package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The index is a compacted base plus an append-only journal:
//
//	index.json  the base: {"name": "hex", ...} with sorted keys
//	index.log   one record per Link or Unlink since the base was written
//
// A journal record is one text line:
//
//	<crc> L <hash> <name>\n   link name to the object hash
//	<crc> U <name>\n          unlink name
//
// <hash> is 64 lowercase hex digits, <name> is Go-quoted (so it never
// holds a newline), and <crc> is the CRC-32C of everything between the
// space after it and the newline, as 8 lowercase hex digits. Every
// record is an absolute assignment, so replaying a record whose effect
// the base already holds changes nothing.

const (
	baseFile = "index.json"
	logFile  = "index.log"
	// compactMin is the fewest journal records that make the next
	// mutation compact first. Compaction also waits until the journal
	// holds twice the live name count, so its O(live) base rewrite is
	// paid at most once per O(live) appends.
	compactMin = 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record renders the journal line for one mutation: a link of name to
// h, or an unlink of name when link is false.
func record(name string, h Hash, link bool) []byte {
	rec := make([]byte, 0, 80+len(name))
	rec = append(rec, "00000000 "...)
	if link {
		rec = append(rec, "L "...)
		rec = hex.AppendEncode(rec, h[:])
		rec = append(rec, ' ')
	} else {
		rec = append(rec, "U "...)
	}
	rec = strconv.AppendQuote(rec, name)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(rec[9:], castagnoli))
	hex.Encode(rec[:8], crc[:])
	return append(rec, '\n')
}

// parseRecord decodes one journal line, without its newline. A checksum
// mismatch and a malformed body are both errors.
func parseRecord(line []byte) (name string, h Hash, link bool, err error) {
	if len(line) < 11 || line[8] != ' ' {
		return "", Hash{}, false, errors.New("malformed record")
	}
	body := line[9:]
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(body, castagnoli))
	var want [8]byte
	hex.Encode(want[:], crc[:])
	if !bytes.Equal(line[:8], want[:]) {
		return "", Hash{}, false, errors.New("checksum mismatch")
	}
	switch {
	case body[0] == 'L' && body[1] == ' ' && len(body) > 67 && body[66] == ' ':
		if _, err := hex.Decode(h[:], body[2:66]); err != nil {
			return "", Hash{}, false, fmt.Errorf("hash: %w", err)
		}
		link, body = true, body[67:]
	case body[0] == 'U' && body[1] == ' ':
		body = body[2:]
	default:
		return "", Hash{}, false, errors.New("malformed record")
	}
	name, err = strconv.Unquote(string(body))
	if err != nil || name == "" {
		return "", Hash{}, false, fmt.Errorf("name %q: not a quoted non-empty name", body)
	}
	return name, h, link, nil
}

func (s *Store) basePath() string { return filepath.Join(s.dir, baseFile) }
func (s *Store) logPath() string  { return filepath.Join(s.dir, logFile) }

// loadBase reads index.json into s.names. A missing base is a fresh
// store (or one that has never compacted).
func (s *Store) loadBase() error {
	data, err := os.ReadFile(s.basePath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	var wire map[string]string
	if err := json.Unmarshal(data, &wire); err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	// Validate in sorted order so a corrupt index always reports the
	// same (first) offending entry, not a map-order-dependent one.
	names := make([]string, 0, len(wire))
	for name := range wire {
		names = append(names, name) //leo:allow maprange keys are collected then sorted; the load order is the sort
	}
	sort.Strings(names)
	for _, name := range names {
		h, err := ParseHex(wire[name])
		if err != nil {
			return fmt.Errorf("store: index entry %q: %w", name, err)
		}
		s.names[name] = h
	}
	return nil
}

// replayLog applies index.log's records to s.names in file order. A
// final line without its newline is an append that never completed, so
// it was never acknowledged: it is dropped and truncated away. The
// newline is the last byte of a record, so a torn append always lacks
// it; any newline-terminated record that fails to parse is corruption
// and a hard error, like a corrupt base.
func (s *Store) replayLog() error {
	data, err := os.ReadFile(s.logPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: index log: %w", err)
	}
	off := 0
	for {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			break
		}
		name, h, link, err := parseRecord(data[off : off+n])
		if err != nil {
			return fmt.Errorf("store: index log record %d (byte %d): %w", s.records+1, off, err)
		}
		if link {
			s.names[name] = h
		} else {
			delete(s.names, name)
		}
		off += n + 1
		s.records++
	}
	s.logSize = int64(off)
	if off < len(data) {
		if err := os.Truncate(s.logPath(), s.logSize); err != nil {
			return fmt.Errorf("store: index log: drop torn record: %w", err)
		}
	}
	return nil
}

// logLocked makes one journal record durable, compacting first when the
// journal has grown past the rule. It leaves memory untouched: the
// caller applies the mutation only once this returns nil.
func (s *Store) logLocked(rec []byte) error {
	if s.records >= compactMin && s.records >= 2*len(s.names) {
		if err := s.writeBaseLocked(); err != nil {
			return err
		}
		// The base now holds every record's effect, so cut the journal
		// before this record goes in. A crash before the cut is durable
		// replays records the base already contains, to the same state.
		s.logSize, s.records, s.logDirty = 0, 0, true
	}
	f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: index log: %w", err)
	}
	var terr, werr error
	if s.logDirty {
		terr = f.Truncate(s.logSize)
	}
	if terr == nil {
		_, werr = f.WriteAt(rec, s.logSize)
	}
	serr := f.Sync()
	cerr := f.Close()
	var derr error
	if s.logSize == 0 {
		derr = syncDir(s.dir) // the journal's directory entry, when new
	}
	if err := errors.Join(terr, werr, serr, cerr, derr); err != nil {
		// Bytes past logSize belong to no acknowledged record; the next
		// append cuts them before writing.
		s.logDirty = true
		return fmt.Errorf("store: index log: %w", err)
	}
	s.logSize += int64(len(rec))
	s.records++
	s.logDirty = false
	return nil
}

// writeBaseLocked persists the name → hash map as the new base
// atomically: temp file, sync, rename, then a sync of the store
// directory so the rename is durable before the journal is cut. JSON
// with sorted keys (encoding/json sorts string-keyed maps) keeps the
// file diffable and its bytes a pure function of the index contents.
func (s *Store) writeBaseLocked() error {
	wire := make(map[string]string, len(s.names))
	for name, h := range s.names {
		wire[name] = h.Hex()
	}
	data, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.basePath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: index: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	return nil
}

// syncDir makes the entries of a directory — a rename or create inside
// it — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}
