package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leonardo/internal/stats"
)

// bench is the state of one invocation: configuration, the operation
// ledger, the tracer of a traced run, and the metrics collected.
type bench struct {
	cfg config
	dir string // this run's scratch directory
	out io.Writer
	tr  *tracer // nil in untraced runs

	// clock starts the measurement window; a traced run traces every
	// other slice of it.
	clock time.Time
	slice time.Duration

	// The load generator's p50, p90 and p99 latency over all its
	// untraced samples, ms.
	loadMS [3]float64

	setup   phase
	measure phase
	check   phase

	e2e   map[string]metric
	layer map[string]metric

	logMu sync.Mutex
}

func newBench(cfg config, dir string, out io.Writer) *bench {
	b := &bench{
		cfg: cfg, dir: dir, out: out,
		setup:   phase{name: "setup"},
		measure: phase{name: "measure"},
		check:   phase{name: "check"},
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// logf prints one human-readable report line; the JSON result is
// always the last line, so these come first.
func (b *bench) logf(format string, args ...any) {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// phase counts the operations of one phase by outcome. Refused means
// the daemon pushed back (429, 503, 409); failed covers transport
// errors, any other unexpected status, and outputs that fail a check.
type phase struct {
	name                      string
	sent, ok, refused, failed atomic.Int64
}

// record classifies one finished operation and reports whether it
// succeeded with the wanted status.
func (p *phase) record(status, want int, err error) bool {
	p.sent.Add(1)
	switch {
	case err == nil && status == want:
		p.ok.Add(1)
		return true
	case err == nil && (status == 429 || status == 503 || status == 409):
		p.refused.Add(1)
	default:
		p.failed.Add(1)
	}
	return false
}

// fail turns an operation already counted as ok into a failed one (its
// output did not pass a check).
func (p *phase) fail() {
	p.ok.Add(-1)
	p.failed.Add(1)
}

// attemptedOps counts the operations of the measurement window and of
// the output checks after it; failedOps those of them that were refused
// or failed. Set-up operations must all succeed, or the run stops.
func (b *bench) attemptedOps() int64 { return b.measure.sent.Load() + b.check.sent.Load() }

func (b *bench) failedOps() int64 {
	n := int64(0)
	for _, p := range []*phase{&b.measure, &b.check} {
		n += p.refused.Load() + p.failed.Load()
	}
	return n
}

func (b *bench) printPhases() {
	for _, p := range []*phase{&b.setup, &b.measure, &b.check} {
		b.logf("phase %-7s sent=%d ok=%d refused=%d failed=%d",
			p.name, p.sent.Load(), p.ok.Load(), p.refused.Load(), p.failed.Load())
	}
}

// e2eMetric and layerMetric set one metric of the result.
func (b *bench) e2eMetric(name, unit string, v float64) {
	b.e2e[name] = metric{Value: finite(v), Unit: unit}
}

func (b *bench) layerMetric(name, unit string, v float64) {
	b.layer[name] = metric{Value: finite(v), Unit: unit}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// dist is a sample of durations in nanoseconds. Percentiles are exact:
// every sample is kept, and quantiles come from internal/stats.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// q returns the q-quantile in nanoseconds (0 for an empty sample).
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return stats.Quantile(d.sorted(), q)
}

// describe renders the sample's quartiles, deciles and p99 in the given
// unit with the sample count and how many samples lie beyond the p99.
func (d dist) describe(unit time.Duration) string {
	if len(d) == 0 {
		return "n=0"
	}
	s := d.sorted()
	p99 := stats.Quantile(s, 0.99)
	beyond := len(s) - sort.SearchFloat64s(s, math.Nextafter(p99, math.Inf(1)))
	u := float64(unit)
	return fmt.Sprintf("p10=%.4g p25=%.4g p50=%.4g p75=%.4g p90=%.4g p99=%.4g max=%.4g n=%d beyond_p99=%d",
		stats.Quantile(s, 0.1)/u, stats.Quantile(s, 0.25)/u, stats.Quantile(s, 0.5)/u,
		stats.Quantile(s, 0.75)/u, stats.Quantile(s, 0.9)/u, p99/u, s[len(s)-1]/u, len(s), beyond)
}

func durNS(d time.Duration) float64 { return float64(d) }

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 { return dist(xs).q(0.5) }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// provenance records the machine and the code measured: CPU model,
// nproc, GOMAXPROCS, Go version, the VCS revision when the build had
// one, and a digest of the checkout's Go sources, which identifies the
// code even where the checkout is not a repository.
func provenance() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, sourceDigest())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod of the checkout in
// path order, skipping build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))[:19]
}
