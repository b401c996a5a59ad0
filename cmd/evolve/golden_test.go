package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"leonardo"
)

// goldenRuns are small fixed-seed invocations of every run mode the
// command reports, each as text and as -json -progress, plus a
// -checkpoint-at/-resume pair per mode. A pair shares one working
// directory, so the resume reads the file the pause wrote.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"gap", []string{"-seed", "3", "-progress", "50", "-curve"}},
	{"gap-json", []string{"-seed", "3", "-json", "-progress", "50"}},
	{"gap-steps4", []string{"-seed", "5", "-steps", "4", "-maxgen", "200", "-progress", "50"}},
	{"gap-pause", []string{"-seed", "3", "-json", "-checkpoint", "run.snap", "-checkpoint-at", "120"}},
	{"gap-resume", []string{"-resume", "run.snap", "-progress", "50", "-checkpoint", "final.snap"}},

	{"islands", []string{"-seed", "4", "-islands", "3", "-migrate-every", "5", "-progress", "2"}},
	{"islands-json", []string{"-seed", "4", "-islands", "3", "-migrate-every", "5", "-json", "-progress", "2"}},
	{"islands-pause", []string{"-seed", "4", "-islands", "3", "-migrate-every", "5", "-checkpoint", "run.snap", "-checkpoint-at", "3"}},
	{"islands-resume", []string{"-resume", "run.snap", "-workers", "2", "-json", "-progress", "2", "-checkpoint", "final.snap"}},

	{"lanepack", []string{"-seed", "4", "-lanepack", "-islands", "4", "-pop", "8", "-maxgen", "30", "-migrate-every", "5", "-progress", "2"}},
	{"lanepack-json", []string{"-seed", "4", "-lanepack", "-islands", "4", "-pop", "8", "-maxgen", "30", "-migrate-every", "5", "-json", "-progress", "2"}},
	{"lanepack-pause", []string{"-seed", "4", "-lanepack", "-islands", "4", "-pop", "8", "-maxgen", "30", "-migrate-every", "5", "-json", "-checkpoint", "run.snap", "-checkpoint-at", "2"}},
	{"lanepack-resume", []string{"-resume", "run.snap", "-progress", "2", "-checkpoint", "final.snap"}},

	{"repertoire", []string{"-seed", "3", "-repertoire", "-grid", "8x4", "-batch", "32", "-evals", "640", "-progress", "5"}},
	{"repertoire-json", []string{"-seed", "3", "-repertoire", "-grid", "8x4", "-batch", "32", "-evals", "640", "-json", "-progress", "5"}},
	{"repertoire-pause", []string{"-seed", "3", "-repertoire", "-grid", "8x4", "-batch", "32", "-evals", "640", "-checkpoint", "run.snap", "-checkpoint-at", "10"}},
	{"repertoire-resume", []string{"-resume", "run.snap", "-workers", "3", "-json", "-progress", "5", "-checkpoint", "final.snap"}},
}

// elapsedRE matches the one wall-clock field of the -json trace.
var elapsedRE = regexp.MustCompile(`"elapsed_ns": [0-9]+`)

// TestGoldenOutput pins the command's output byte for byte: stdout and
// stderr (progress lines, the "resumed … at" and "snapshot at …
// written" notices) of every goldenRuns entry must equal
// testdata/<name>.stdout and testdata/<name>.stderr, the trace's wall
// times aside. Regenerate a file pair by running the command with the
// entry's arguments, in one scratch directory per mode, in table order.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dirs := map[string]string{}
	for _, tc := range goldenRuns {
		mode, _, _ := strings.Cut(tc.name, "-")
		if dirs[mode] == "" {
			dirs[mode] = t.TempDir()
		}
		t.Run(tc.name, func(t *testing.T) {
			cmd, stdout, stderr := evolveCmd(t, tc.args...)
			cmd.Dir = dirs[mode]
			if err := cmd.Run(); err != nil {
				t.Fatalf("evolve %s: %v\nstderr:\n%s", strings.Join(tc.args, " "), err, stderr)
			}
			for _, out := range []struct {
				ext string
				got []byte
			}{{".stdout", stdout.Bytes()}, {".stderr", stderr.Bytes()}} {
				want, err := os.ReadFile(filepath.Join("testdata", tc.name+out.ext))
				if err != nil {
					t.Fatal(err)
				}
				got := elapsedRE.ReplaceAll(out.got, []byte(`"elapsed_ns": 0`))
				want = elapsedRE.ReplaceAll(want, []byte(`"elapsed_ns": 0`))
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from testdata/%s%s\ngot:\n%s\nwant:\n%s", out.ext[1:], tc.name, out.ext, got, want)
				}
			}
		})
	}
}

// TestResumeUnreportableKind: the command reports the gap, island,
// lane-packed, and repertoire kinds; a snapshot of any other kind is
// refused with exit status 1 rather than misread.
func TestResumeUnreportableKind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	run, err := leonardo.NewCircuitRun(leonardo.PaperParams(3), []uint64{3}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "circuit.snap")
	if err := os.WriteFile(snap, run.Snapshot(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, stdout, stderr := evolveCmd(t, "-resume", snap)
	err = cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("resuming a circuit snapshot: err = %v, want exit status 1\nstderr:\n%s", err, stderr)
	}
	if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "evolve: ") {
		t.Fatalf("refusal printed stdout %q, stderr %q", stdout, stderr)
	}
}
