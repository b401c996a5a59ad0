package leonardo

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"leonardo/internal/engine"
)

// snapshotOfKind builds a small, valid snapshot of each run kind for
// the cross-kind rejection table.
func snapshotOfKind(t *testing.T, kind string) []byte {
	t.Helper()
	p := PaperParams(3)
	p.MaxGenerations = 50
	switch kind {
	case KindGAP:
		r, err := NewRun(p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Snapshot()
	case KindIsland:
		r, err := NewIslandRun(IslandParams{Demes: 2, MigrateEvery: 3, Base: p})
		if err != nil {
			t.Fatal(err)
		}
		return r.Snapshot()
	case KindCircuit:
		r, err := NewCircuitRun(p, []uint64{3}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.Snapshot()
	}
	t.Fatalf("unknown kind %q", kind)
	return nil
}

// resumeAs resumes a snapshot through the kind table's entry for kind,
// bypassing ResumeAny's header dispatch, so a snapshot of another kind
// reaches that kind's decoder.
func resumeAs(kind string) func([]byte) error {
	return func(b []byte) error { _, err := kinds[kind].resume(b); return err }
}

// TestResumeErrorPaths pins the facade's resume boundary: every resume
// entry point rejects snapshots of the wrong kind, truncated input, and
// foreign bytes with a descriptive error — never a panic, never a
// zero-value run. The per-kind cases go through resumeAs; their names
// are those of the typed resume functions the kind table replaced
// (Resume: gap, ResumeIslands: island, ResumeCircuit: gapcirc).
func TestResumeErrorPaths(t *testing.T) {
	gapSnap := snapshotOfKind(t, KindGAP)
	islandSnap := snapshotOfKind(t, KindIsland)
	circuitSnap := snapshotOfKind(t, KindCircuit)

	cases := []struct {
		name    string
		resume  func([]byte) error
		data    []byte
		wantSub string // substring the error must carry
		wantIs  error  // sentinel the error must wrap (nil = skip)
	}{
		{"Resume on island snapshot",
			resumeAs(KindGAP), islandSnap, "snapshot kind", nil},
		{"Resume on circuit snapshot",
			resumeAs(KindGAP), circuitSnap, "snapshot kind", nil},
		{"ResumeIslands on gap snapshot",
			resumeAs(KindIsland), gapSnap, "snapshot kind", nil},
		{"ResumeCircuit on island snapshot",
			resumeAs(KindCircuit), islandSnap, "snapshot kind", nil},
		{"Resume on empty input",
			resumeAs(KindGAP), nil, "truncated", engine.ErrTruncated},
		{"ResumeIslands on empty input",
			resumeAs(KindIsland), nil, "truncated", engine.ErrTruncated},
		{"ResumeAny on empty input",
			func(b []byte) error { _, err := ResumeAny(b); return err },
			nil, "truncated", engine.ErrTruncated},
		{"ResumeAny on foreign bytes",
			func(b []byte) error { _, err := ResumeAny(b); return err },
			[]byte("these are not snapshot bytes"), "magic", engine.ErrBadMagic},
		{"ResumeAny on unknown kind",
			func(b []byte) error { _, err := ResumeAny(b); return err },
			engine.NewEnc("mystery", 1).Bytes(), `unsupported snapshot kind "mystery"`, nil},
		{"ResumeAny on truncated island snapshot",
			func(b []byte) error { _, err := ResumeAny(b); return err },
			islandSnap[:len(islandSnap)-7], "", engine.ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.resume(tc.data)
			if err == nil {
				t.Fatal("resume accepted bad input")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantIs)
			}
		})
	}
}

// TestResumeIslandsCorruptedDemeBlob corrupts one nested deme snapshot
// inside an otherwise-valid island snapshot: the outer header parses,
// so the failure must come from the deme restore, as a descriptive
// error rather than a panic or a half-restored archipelago.
func TestResumeIslandsCorruptedDemeBlob(t *testing.T) {
	snap := snapshotOfKind(t, KindIsland)

	// Each deme rides in a Blob as a complete nested gap snapshot; find
	// the first one by its inner header and break its magic.
	innerHeader := []byte("LEOSNAP\x00\x03gap")
	at := bytes.Index(snap[1:], innerHeader) + 1 // skip the outer magic itself
	if at <= 0 {
		t.Fatal("island snapshot carries no nested gap snapshot")
	}
	corrupt := bytes.Clone(snap)
	corrupt[at] ^= 0xff
	_, err := ResumeAny(corrupt)
	if err == nil {
		t.Fatal("ResumeAny accepted a corrupted deme blob")
	}
	if !strings.Contains(err.Error(), "deme") && !errors.Is(err, engine.ErrBadMagic) {
		t.Fatalf("corrupted deme error %q names neither the deme nor the magic failure", err)
	}

	// Truncating inside the nested blob must also fail cleanly.
	_, err = ResumeAny(snap[:at+4])
	if err == nil {
		t.Fatal("ResumeAny accepted a snapshot truncated mid-deme")
	}
	if !errors.Is(err, engine.ErrTruncated) {
		t.Fatalf("mid-deme truncation error %v does not wrap ErrTruncated", err)
	}
}

// TestRunnerNilOnError: NewRunner and ResumeAny return a nil Runner on
// every error path, for every kind — never a non-nil interface holding
// a nil run pointer, which would pass a runner != nil check and panic
// on first use.
func TestRunnerNilOnError(t *testing.T) {
	bad := []RunSpec{
		{Kind: KindGAP, Seed: 1, Population: 3},
		{Kind: KindIsland, Seed: 1, Islands: 2, Population: 3},
		{Kind: KindLanePack, Seed: 1, Islands: 2, Population: 3},
		{Kind: KindCircuit, Seed: 1, Population: 3, Generations: 2},
		{Kind: KindCircuit, Seed: 1},
		{Kind: KindRepertoire, Seed: 1, Batch: -1},
		{Kind: KindRepertoire, Seed: 1, Grid: "8by4"},
		{Kind: KindCluster, Seed: 1},
		{Kind: "mystery"},
		{},
	}
	for i, spec := range bad {
		r, err := spec.NewRunner()
		if err == nil {
			t.Errorf("bad spec %d (%q): NewRunner accepted it", i, spec.Kind)
		}
		if r != nil {
			t.Errorf("bad spec %d (%q): NewRunner returned %T alongside error %v, want a nil Runner", i, spec.Kind, r, err)
		}
	}

	for _, spec := range []RunSpec{
		{Kind: KindGAP, Seed: 1, Population: 8, MaxGenerations: 5},
		{Kind: KindIsland, Seed: 1, Islands: 2, Population: 8, MaxGenerations: 5},
		{Kind: KindLanePack, Seed: 1, Islands: 2, Population: 8, MaxGenerations: 5},
		{Kind: KindCircuit, Seed: 1, Population: 8, Generations: 2},
		{Kind: KindRepertoire, Seed: 1, Grid: "4x2", Batch: 8, Evaluations: 16},
	} {
		run, err := spec.NewRunner()
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		snap := run.Snapshot()
		r, err := ResumeAny(snap[:len(snap)-7])
		if err == nil {
			t.Errorf("%s: ResumeAny accepted a truncated snapshot", spec.Kind)
		}
		if r != nil {
			t.Errorf("%s: ResumeAny returned %T alongside error %v, want a nil Runner", spec.Kind, r, err)
		}
	}
}
