// Command leobench is the repository benchmark. It runs an in-process
// leonardod — serve.New plus serve.NewAPI on a loopback listener, with
// Workers = nproc and the spool on local disk — and drives it over real
// HTTP from the same process with at most nproc client goroutines and
// connections. One workload runs per invocation:
//
//	runs-short   closed loop of nproc clients: submit a paper gap spec,
//	             follow its event stream to the end, submit the next
//	evolve-read  back-to-back batches of two repertoire, a lanepack, a
//	             gapcirc and an island run, each batch submitted at once,
//	             read by an open-loop gait reader
//	gait-read    open-loop gait lookups against cached archives, then a
//	             closed-loop capacity probe
//
// Usage (from the root of a checkout; leobench/run.sh builds and runs it):
//
//	leobench --workload NAME --seed N --seconds S --trace 0|1
//
// Every output the program returns is checked; a mismatch is a failed
// operation and fails the run (exit 1, no metrics). The last line of
// standard output is one JSON object: correct, attempted, failed, and
// the metrics — the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. README.md maps each metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"runs-short":  runsShort,
	"evolve-read": evolveRead,
	"gait-read":   gaitRead,
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measurement window (--seconds)
	trace    bool
	dir      string // scratch root: spools, trace files
	scale    scale
	// corruptDigest poisons the first expected snapshot digest, so the
	// output check must fail the run (the benchmark's own test).
	corruptDigest bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: runs-short, evolve-read or gait-read")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "leobench: need --workload runs-short|evolve-read|gait-read, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      filepath.Join(".bench_build", "leobench"),
		scale:    fullScale,
	}
	return execute(cfg, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one configured workload and prints its report. It
// returns 0 on success, 1 when set-up failed or any output check did.
func execute(cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "leobench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "leobench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := newBench(cfg, runDir, stdout)
	b.logf("leobench workload=%s seed=%d window=%v trace=%v", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	b.logf("machine %s", provenance())
	werr := workloads[cfg.workload](b)
	b.printPhases()

	res := result{
		Attempted: max(b.attemptedOps(), 1),
		Failed:    b.failedOps(),
		Metrics:   map[string]metric{},
	}
	switch {
	case werr != nil:
		fmt.Fprintf(stderr, "leobench: %s: %v\n", cfg.workload, werr)
		return 1
	case res.Failed > 0:
		printResult(stdout, res)
		return 1
	}
	res.Correct = true
	if cfg.trace {
		b.setLayer("load.fail_ratio", float64(res.Failed)/float64(res.Attempted))
		b.setLayer("mem.peak_rss_mb", peakRSSMB())
		path := filepath.Join(cfg.dir, "trace-"+cfg.workload+".jsonl")
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "leobench: trace: %v\n", err)
			return 1
		}
		b.logf("spans written to %s", path)
		res.Metrics = b.layer
	} else {
		res.Metrics = b.e2e
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r result) {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintf(w, "%s\n", data)
}
