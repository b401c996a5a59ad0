package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	setupRepeats: 2, submitWindow: 4,
	shortWarm: 2, replayRuns: 5,
	archives: 6, archiveEvals: 128,
	repEvals: 3840, laneGens: 10, circGens: 4, islandGens: 100, readRate: 200,
	gaitArchives: 2, gaitEvals: 640, gaitRate: 1000, openShare: 0.7,
	replayReads: 200,
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at tiny scale and returns its exit code and
// the parsed last line of its output.
func runTiny(t *testing.T, workload string, trace, corrupt bool) (int, result) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{
		workload: workload, seed: 3, window: 300 * time.Millisecond, trace: trace,
		dir: t.TempDir(), scale: tinyScale, corruptDigest: corrupt,
	}
	code := execute(cfg, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return code, res
}

func TestWorkloadsPrintTheDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which leobench does not run", w.Name)
		}
		for _, trace := range []bool{false, true} {
			code, res := runTiny(t, w.Name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w.Name, trace, code, res)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !equalMaps(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w.Name, trace, sortedKeys(got), sortedKeys(want))
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.Name, trace, name, got[name], unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// The zeros each workload predicts for the layers it bypasses, read
// from the daemon's own counters, so a daemon that started stepping
// runs, writing checkpoints or decoding archives on a read-only
// workload would fail it.
func TestPredictedZeros(t *testing.T) {
	_, gait := runTiny(t, "gait-read", true, false)
	for _, name := range []string{"serve.generations", "serve.evaluations", "serve.snapshot_bytes",
		"serve.checkpoint_us", "gaitserve.decodes", "gaitserve.evictions"} {
		if v := gait.Metrics[name].Value; v != 0 {
			t.Errorf("gait-read: %s = %v, want 0", name, v)
		}
	}
	if v := gait.Metrics["gaitserve.hit_ratio"].Value; v != 1 {
		t.Errorf("gait-read: gaitserve.hit_ratio = %v, want 1", v)
	}
	_, short := runTiny(t, "runs-short", true, false)
	if v := short.Metrics["gaitserve.decodes"].Value; v != 0 {
		t.Errorf("runs-short: gaitserve.decodes = %v, want 0", v)
	}
	// The same counters do move where the daemon does the work.
	for _, name := range []string{"serve.generations", "serve.evaluations", "serve.snapshot_bytes", "serve.checkpoint_us"} {
		if short.Metrics[name].Value == 0 {
			t.Errorf("runs-short: %s = 0, want the daemon's work over the window", name)
		}
	}
}

func TestCorruptDigestFailsTheRun(t *testing.T) {
	for _, w := range []string{"runs-short", "evolve-read"} {
		code, res := runTiny(t, w, false, true)
		if code == 0 || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
			t.Errorf("%s with a corrupted expected digest: exit %d, result %+v; want a failed run without metrics", w, code, res)
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
