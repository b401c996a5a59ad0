package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"leonardo"
	"leonardo/internal/engine"
	"leonardo/internal/repertoire"
	"leonardo/internal/serve"
	"leonardo/internal/store"
)

// scale sizes the workloads. fullScale is the benchmark; the
// benchmark's own tests run a tiny one.
type scale struct {
	setupRepeats int // set-ups per run; setup_s is their median
	submitWindow int // set-up runs in flight at once, below the admission queue depth

	shortWarm  int // runs-short: warm-up runs before set-up
	replayRuns int // runs-short: traced runs replayed through the layers

	archives     int     // evolve-read: finished archives, more than the gait cache holds
	archiveEvals int     // evaluations per finished archive
	repEvals     int     // evolve-read batch: evaluations per repertoire run
	laneGens     int     // evolve-read batch: lanepack generations
	circGens     int     // evolve-read batch: gapcirc generations per seed
	islandGens   int     // evolve-read batch: island generations
	readRate     float64 // evolve-read reader, lookups/s

	gaitArchives int // gait-read: archives, all cached
	gaitEvals    int
	gaitRate     float64 // gait-read open-loop rate, lookups/s
	openShare    float64 // share of gait-read's window in the open loop

	replayReads int // traced lookups replayed through the layers
}

var fullScale = scale{
	setupRepeats: 15, submitWindow: 32,
	shortWarm: 200, replayRuns: 200,
	archives: 80, archiveEvals: 640,
	repEvals: 5000, laneGens: 20, circGens: 16, islandGens: 300, readRate: 300,
	gaitArchives: 4, gaitEvals: 3200, gaitRate: 8000, openShare: 0.7,
	replayReads: 20000,
}

// workers is the client concurrency: at most nproc goroutines and
// connections.
func workers() int { return runtime.NumCPU() }

// startClock starts the measurement window. In a traced run the window
// alternates untraced and traced slices, so trace.overhead_ratio
// compares the two under the same conditions.
func (b *bench) startClock(t time.Time) {
	b.clock = t
	b.slice = max(b.cfg.window/50, 10*time.Millisecond)
}

func (b *bench) tracedAt(t time.Time) bool {
	if b.tr == nil || b.clock.IsZero() {
		return false
	}
	return (t.Sub(b.clock)/b.slice)%2 == 1
}

// setUp runs a workload's set-up scale.setupRepeats times, keeps the
// last daemon and reports the median set-up time as setup_s. Every
// workload prepares its spool first, untimed; set-up is a restart of
// the daemon over it until it is ready to serve the workload. A
// restart only reads the spool, so the repeats are alike and free of
// fsync noise.
func (b *bench) setUp(f func() (*daemon, error)) (*daemon, error) {
	var times []float64
	var d *daemon
	for k := 0; k < b.cfg.scale.setupRepeats; k++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		nd, err := f()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		d = nd
	}
	b.e2eMetric("setup_s", "s", median(times))
	b.logf("setup_s median=%.4f of %.4f", median(times), times)
	return d, nil
}

// interval is a part of the measurement window, as offsets from its
// start.
type interval struct{ from, to time.Duration }

// split cuts [from, to) into n equal intervals.
func split(from, to time.Duration, n int) []interval {
	parts := make([]interval, n)
	for k := range parts {
		parts[k] = interval{from + (to-from)*time.Duration(k)/time.Duration(n), from + (to-from)*time.Duration(k+1)/time.Duration(n)}
	}
	return parts
}

// The headline metrics are medians over the intervals of a run: p50_ms
// is the median of the intervals' median latencies, throughput_per_s
// the median of their rates. Interference from outside the benchmark —
// a neighbour's burst of CPU or disk use on a shared machine — slows
// only the intervals it hits, and the median passes over a minority of
// them; a slower program slows every interval.
func (b *bench) headline(name string, res *loadResult, parts []interval) {
	var p50s []float64
	for _, p := range parts {
		if d := res.within(p.from, p.to); len(d) > 0 {
			p50s = append(p50s, d.q(0.5)/1e6)
		}
	}
	b.e2eMetric("p50_ms", "ms", median(p50s))
	b.logf("%s p50 (ms) per interval: %.4g", name, p50s)
	b.loadPercentiles(name, res)
}

// loadPercentiles keeps the load generator's latency percentiles over
// all its untraced samples for the per-layer report.
func (b *bench) loadPercentiles(name string, res *loadResult) {
	b.loadMS = [3]float64{res.lat[0].q(0.5) / 1e6, res.lat[0].q(0.9) / 1e6, res.lat[0].q(0.99) / 1e6}
	b.logf("%s latency (ms), all samples: %s", name, res.lat[0].describe(time.Millisecond))
	if len(res.late) > 0 {
		b.logf("%s generator lateness (ms): %s", name, res.late.describe(time.Millisecond))
	}
}

// rate is the median over the intervals of the operations completed
// per second, counting each by when it started.
func rate(res *loadResult, parts []interval) float64 {
	var rates []float64
	for _, p := range parts {
		rates = append(rates, float64(len(res.within(p.from, p.to)))/(p.to-p.from).Seconds())
	}
	return median(rates)
}

func (b *bench) throughput(name string, v float64) {
	b.e2eMetric("throughput_per_s", "1/s", v)
	b.logf("throughput_per_s=%.6g (%s)", v, name)
}

// runsShort is the closed loop of nproc clients, each submitting a
// paper gap spec with a fresh seed, following its event stream to the
// end event, then submitting the next. Each run evolves for about a
// millisecond, so admission, meta persistence, snapshot encoding and
// store.Put with its fsync dominate its latency.
func runsShort(b *bench) error {
	sc, seed := b.cfg.scale, b.cfg.seed
	// Preparation: the daemon serves shortWarm runs, so the window
	// starts on a spool that already holds some, and set-up reloads
	// them.
	spool := filepath.Join(b.dir, "spool")
	warm, err := startDaemon(spool, b.tr)
	if err != nil {
		return err
	}
	for i := 0; i < sc.shortWarm; i++ {
		if _, err := warm.c.runToEnd(&b.setup, gapSpec(seed, streamWarm, i)); err != nil {
			warm.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	warm.close()
	d, err := b.setUp(func() (*daemon, error) {
		d, err := startDaemon(spool, b.tr)
		if err != nil {
			return nil, err
		}
		if !d.c.healthz(&b.setup) {
			d.close()
			return nil, errors.New("daemon did not answer /healthz")
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.close()

	type runRec struct {
		i      int
		id     string
		traced bool
	}
	recs := make([][]runRec, workers())
	var before counters
	if b.tr != nil {
		before, _ = d.c.scrape(&b.setup)
	}
	start := time.Now()
	b.startClock(start)
	res := closedLoop(b, start.Add(b.cfg.window), workers(), func(w, i int, traced bool) bool {
		id, ok := d.c.submit(&b.measure, gapSpec(seed, streamGAP, i), traced)
		if !ok || !d.c.follow(&b.measure, id, traced, nil) {
			return false
		}
		recs[w] = append(recs[w], runRec{i, id, traced})
		return true
	})
	var all []runRec
	for _, r := range recs {
		all = append(all, r...)
	}
	parts := split(0, b.cfg.window, 10)
	b.headline("run", res, parts)
	b.throughput("runs completed per second", rate(res, parts))

	// Check every run's final snapshot against the same spec driven
	// through the facade.
	want, err := engine.Map(nil, 0, len(all), func(k int) ([32]byte, error) {
		return facadeDigest(gapSpec(seed, streamGAP, all[k].i))
	})
	if err != nil {
		return err
	}
	if b.cfg.corruptDigest && len(want) > 0 {
		want[0][0] ^= 0xff
	}
	for k, r := range all {
		if _, sum, ok := d.c.snapshot(&b.check, r.id, false); ok && sum != want[k] {
			b.check.fail()
			b.logf("run %s: final snapshot differs from the facade's", r.id)
		}
	}
	if b.tr == nil {
		return nil
	}

	after, _ := d.c.scrape(&b.check)
	in := layerInputs{load: res, sent: res.sent, daemon: after.sub(before), rp: newReplay(b.tr)}
	var replayed []runRec
	for _, r := range all {
		if !r.traced {
			continue
		}
		if info, ok := d.c.info(&b.check, r.id, false); ok {
			in.queueWait = append(in.queueWait, queueWait(info))
		}
		if len(replayed) < sc.replayRuns {
			replayed = append(replayed, r)
		}
	}
	d.close()
	if err := in.rp.openStore(filepath.Join(d.spool, "store")); err != nil {
		return err
	}
	for _, r := range replayed {
		// Unlinking the run first drops its final snapshot, so the
		// replay writes it again into an index of the daemon's size.
		if err := in.rp.st.Unlink(r.id); err != nil {
			return err
		}
		if err := in.rp.run(gapSpec(seed, streamGAP, r.i), r.id, nil); err != nil {
			return err
		}
	}
	b.setLayers(in)
	return nil
}

// queueWait is how long a run waited for a worker, and runLatency how
// long it took from submission to its end, from its registry
// timestamps, in nanoseconds.
func queueWait(info serve.Info) float64  { return between(info.Submitted, info.Started) }
func runLatency(info serve.Info) float64 { return between(info.Submitted, info.Finished) }

func between(from, to string) float64 {
	t0, err1 := time.Parse(time.RFC3339Nano, from)
	t1, err2 := time.Parse(time.RFC3339Nano, to)
	if err1 != nil || err2 != nil {
		return 0
	}
	return durNS(t1.Sub(t0))
}

// evolveRead runs batches of two repertoire runs, one lanepack, one
// gapcirc and one island run back to back, each batch submitted at
// once, while an open-loop reader looks gaits up at a fixed rate: half
// of them, once a live run has checkpointed, from the batch's live
// repertoire archives (each checkpoint changes the hash, so the next
// read decodes), the rest from more finished archives than the
// decoded-archive cache holds (LRU evictions, store.Get and its sha256
// check). Reads share the cores with evolution.
func evolveRead(b *bench) error {
	sc, seed := b.cfg.scale, b.cfg.seed
	batch := batchSpecs(sc)

	// Reference outputs, computed once: each batch run's final digest
	// through the facade, and the gaits each live repertoire run holds
	// at its first checkpoint.
	wantDigest, err := engine.Map(nil, 0, len(batch), func(k int) ([32]byte, error) {
		return facadeDigest(batch[k])
	})
	if err != nil {
		return err
	}
	if b.cfg.corruptDigest {
		wantDigest[0][0] ^= 0xff
	}
	liveIdx := [2]int{0, 1} // the batch's repertoire runs
	var live [2]liveRef
	for k, bi := range liveIdx {
		qs, grid, err := liveQueries(batch[bi])
		if err != nil {
			return err
		}
		live[k] = liveRef{qs: qs, grid: grid}
	}

	spool := filepath.Join(b.dir, "spool")
	targets, err := prepareArchives(b, spool, sc.archives, sc.archiveEvals)
	if err != nil {
		return err
	}
	// Set-up reboots over the spool: the archives come back as stored
	// records, read through store.Get.
	d, err := b.setUp(func() (*daemon, error) {
		d, err := startDaemon(spool, b.tr)
		if err != nil {
			return nil, err
		}
		if err := checkTargets(b, d, targets); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.close()

	var before counters
	if b.tr != nil {
		before, _ = d.c.scrape(&b.setup)
	}
	var ls liveState
	type readRec struct{ t, q int }
	var readLog []readRec
	stop := make(chan struct{})
	start := time.Now()
	b.startClock(start)
	var reads *loadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		reads = openLoop(b, start, start.Add(24*time.Hour), sc.readRate, 1, stop, func(_, i int, traced bool) bool {
			r := mix(seed, streamRead, i)
			if id, k, ok := ls.pick(r); ok {
				q := live[k].qs[(r>>8)%uint64(len(live[k].qs))]
				status, _, err := d.c.call("GET", "/v1/gaits?run="+id+q.params, nil, tagGait, traced, &buf)
				if !b.measure.record(status, 200, err) {
					return false
				}
				if !checkLive(buf.Bytes(), q, live[k].grid) {
					b.measure.fail()
					b.logf("live read %s%s: unexpected answer %s", id, q.params, buf.Bytes())
					return false
				}
				return true
			}
			ti := int((r >> 1) % uint64(len(targets)))
			t := &targets[ti]
			qi := int((r >> 24) % uint64(len(t.queries)))
			q := &t.queries[qi]
			status, _, err := d.c.call("GET", q.path, nil, tagGait, traced, &buf)
			if !b.measure.record(status, 200, err) {
				return false
			}
			if !bytes.Equal(buf.Bytes(), q.want) {
				b.measure.fail()
				b.logf("read %s: got %s want %s", q.path, buf.Bytes(), q.want)
				return false
			}
			if traced && len(readLog) < sc.replayReads {
				readLog = append(readLog, readRec{ti, qi})
			}
			return true
		})
	}()

	// Batches run back to back; a batch's makespan runs from its first
	// submission to its last run's end event.
	var makespans []float64
	var batches [][]string
	var batchErr error
	for n := 0; n == 0 || time.Since(start) < b.cfg.window; n++ {
		t0 := time.Now()
		ids, err := runBatch(b, d, batch, liveIdx, &ls)
		if err != nil {
			batchErr = err
			break
		}
		makespans = append(makespans, time.Since(t0).Seconds())
		batches = append(batches, ids)
	}
	close(stop)
	wg.Wait()
	if batchErr != nil {
		return batchErr
	}
	span := median(makespans)
	b.logf("batch makespan (s): median=%.4f of %.4f", span, makespans)
	b.throughput("batches per second, 1/median makespan", 1/span)
	b.loadPercentiles("gait", reads)

	var waits, lats dist
	for _, ids := range batches {
		for k, id := range ids {
			if _, sum, ok := d.c.snapshot(&b.check, id, false); ok && sum != wantDigest[k] {
				b.check.fail()
				b.logf("run %s (%s): final snapshot differs from the facade's", id, batch[k].Kind)
			}
			info, ok := d.c.info(&b.check, id, false)
			if ok && info.State != serve.StateDone {
				b.check.fail()
				b.logf("run %s ended %s: %s", id, info.State, info.Error)
			}
			waits = append(waits, queueWait(info))
			lats = append(lats, runLatency(info))
		}
	}
	// The headline latency is the runs': a read that finds both cores
	// stepping waits for the Go scheduler to preempt a step, so read
	// latencies here depend on preemption timing more than on the code
	// (their per-batch medians ranged from 0.2 to 40 ms within one run)
	// and are reported per layer.
	b.e2eMetric("p50_ms", "ms", lats.q(0.5)/1e6)
	b.logf("run latency (ms), submitted to finished: %s", lats.describe(time.Millisecond))
	if b.tr == nil {
		return nil
	}

	after, _ := d.c.scrape(&b.check)
	in := layerInputs{load: reads, sent: reads.sent, queueWait: waits, daemon: after.sub(before), rp: newReplay(b.tr)}
	d.close()
	rp := in.rp
	if err := rp.openStore(filepath.Join(d.spool, "store")); err != nil {
		return err
	}
	for k, spec := range batch {
		name := fmt.Sprintf("replay/%d", k)
		var onCheckpoint func(store.Hash, []byte) error
		if li := liveSlot(liveIdx, k); li >= 0 {
			q := live[li].qs[0]
			onCheckpoint = func(h store.Hash, snap []byte) error {
				_, err := rp.read(name, h.Hex(), bytesLoader(snap), q)
				return err
			}
		}
		if err := rp.run(spec, name, onCheckpoint); err != nil {
			return err
		}
	}
	for _, r := range readLog {
		t := &targets[r.t]
		h, ok := rp.st.Resolve(t.id)
		if !ok {
			return fmt.Errorf("replay: archive %s is not in the store", t.id)
		}
		if _, err := rp.read(t.id, h.Hex(), rp.storeLoader(h), t.queries[r.q]); err != nil {
			return err
		}
	}
	b.setLayers(in)
	return nil
}

// liveRef is what the reader knows of a live repertoire run in advance.
type liveRef struct {
	qs   []query
	grid repertoire.Grid
}

// liveState is the current batch's live repertoire runs and whether
// each has written its first checkpoint (before that a read would be
// refused as pending).
type liveState struct {
	mu    sync.Mutex
	ids   [2]string
	ready [2]bool
}

// set makes run id the live target of slot k, not yet ready.
func (ls *liveState) set(k int, id string) {
	ls.mu.Lock()
	ls.ids[k], ls.ready[k] = id, false
	ls.mu.Unlock()
}

func (ls *liveState) markReady(k int) {
	ls.mu.Lock()
	ls.ready[k] = true
	ls.mu.Unlock()
}

// pick chooses a live run for an even draw when one is ready.
func (ls *liveState) pick(r uint64) (string, int, bool) {
	if r&1 != 0 {
		return "", 0, false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	k := int(r>>2) & 1
	if !ls.ready[k] {
		k ^= 1
	}
	if !ls.ready[k] {
		return "", 0, false
	}
	return ls.ids[k], k, true
}

func liveSlot(liveIdx [2]int, k int) int {
	for li, bi := range liveIdx {
		if bi == k {
			return li
		}
	}
	return -1
}

// runBatch submits every run of a batch at once — the daemon steps two
// at a time and queues the rest — then follows their event streams to
// the end in submission order. A repertoire run becomes a live read
// target when submitted and ready once its first checkpoint is durable
// — a progress event past the checkpoint stride, or the end of its
// stream — and stays one until the next batch replaces it.
func runBatch(b *bench, d *daemon, batch []leonardo.RunSpec, liveIdx [2]int, ls *liveState) ([]string, error) {
	ids := make([]string, len(batch))
	for k, spec := range batch {
		id, ok := d.c.submit(&b.measure, spec, b.tracedAt(time.Now()))
		if !ok {
			return nil, fmt.Errorf("batch submission of %s refused or failed", spec.Kind)
		}
		ids[k] = id
		if li := liveSlot(liveIdx, k); li >= 0 {
			ls.set(li, id)
		}
	}
	for k, id := range ids {
		li := liveSlot(liveIdx, k)
		var onEvent func(gen int)
		if li >= 0 {
			onEvent = func(gen int) {
				if gen > checkpointStride {
					ls.markReady(li)
				}
			}
		}
		if !d.c.follow(&b.measure, id, false, onEvent) {
			return nil, fmt.Errorf("following run %s failed", id)
		}
		if li >= 0 {
			ls.markReady(li)
		}
	}
	return ids, nil
}

// prepareArchives boots a daemon on a fresh spool, evolves n repertoire
// archives of the given budget through its API — at most submitWindow
// in flight, below the admission queue depth — fetches each one's
// snapshot, renders its expected answers, and shuts the daemon down.
func prepareArchives(b *bench, spool string, n, evals int) ([]target, error) {
	d, err := startDaemon(spool, b.tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	ids := make([]string, n)
	for lo := 0; lo < n; lo += b.cfg.scale.submitWindow {
		hi := min(lo+b.cfg.scale.submitWindow, n)
		for i := lo; i < hi; i++ {
			id, ok := d.c.submit(&b.setup, repertoireSpec(b.cfg.seed, streamArchive, i, evals), false)
			if !ok {
				return nil, errors.New("archive submission refused or failed")
			}
			ids[i] = id
		}
		for i := lo; i < hi; i++ {
			if !d.c.follow(&b.setup, ids[i], false, nil) {
				return nil, fmt.Errorf("following archive run %s failed", ids[i])
			}
		}
	}
	targets := make([]target, n)
	for i, id := range ids {
		snap, _, ok := d.c.snapshot(&b.setup, id, false)
		if !ok {
			return nil, fmt.Errorf("snapshot of archive %s failed or does not match its ETag", id)
		}
		if targets[i], err = archiveTarget(id, snap); err != nil {
			return nil, err
		}
	}
	return targets, nil
}

// checkTargets readies a restarted daemon for the finished archives: it
// fetches each one's snapshot, checks it against its ETag and the bytes
// stored before the restart, and warms the gait cache with one checked
// lookup per archive.
func checkTargets(b *bench, d *daemon, targets []target) error {
	var buf bytes.Buffer
	for i := range targets {
		t := &targets[i]
		snap, _, ok := d.c.snapshot(&b.setup, t.id, false)
		if !ok || !bytes.Equal(snap, t.snap) {
			return fmt.Errorf("snapshot of archive %s failed, does not match its ETag, or changed across the restart", t.id)
		}
		q := t.queries[0]
		status, _, err := d.c.call("GET", q.path, nil, tagGait, false, &buf)
		if !b.setup.record(status, 200, err) || !bytes.Equal(buf.Bytes(), q.want) {
			return fmt.Errorf("warm-up read %s: status %d, body %s", q.path, status, buf.Bytes())
		}
	}
	return nil
}

// gaitRead is an open loop of lookups at a fixed rate against a few
// finished archives that all fit in the cache, after a warm-up, then a
// closed-loop probe of the capacity. Only HTTP, the handler,
// Archive.Lookup and the zero-alloc encoder run: evolution, the store
// and decoding are bypassed, so write-path changes predict no change
// here.
func gaitRead(b *bench) error {
	sc, seed := b.cfg.scale, b.cfg.seed
	spool := filepath.Join(b.dir, "spool")
	targets, err := prepareArchives(b, spool, sc.gaitArchives, sc.gaitEvals)
	if err != nil {
		return err
	}
	d, err := b.setUp(func() (*daemon, error) {
		d, err := startDaemon(spool, b.tr)
		if err != nil {
			return nil, err
		}
		if err := checkTargets(b, d, targets); err != nil {
			d.close()
			return nil, err
		}
		// Warm-up: every query once, so the measured window sees only
		// cache hits.
		var buf bytes.Buffer
		for _, t := range targets {
			for _, q := range t.queries {
				status, _, err := d.c.call("GET", q.path, nil, tagGait, false, &buf)
				if !b.setup.record(status, 200, err) || !bytes.Equal(buf.Bytes(), q.want) {
					d.close()
					return nil, fmt.Errorf("warm-up read %s failed", q.path)
				}
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.close()

	type pair struct{ t, q int }
	var pairs []pair
	for ti, t := range targets {
		for qi := range t.queries {
			pairs = append(pairs, pair{ti, qi})
		}
	}
	logs := make([][]pair, workers())
	bufs := make([]bytes.Buffer, workers())
	op := func(w, i int, traced bool) bool {
		p := pairs[mix(seed, streamRead, i)%uint64(len(pairs))]
		q := &targets[p.t].queries[p.q]
		status, _, err := d.c.call("GET", q.path, nil, tagGait, traced, &bufs[w])
		if !b.measure.record(status, 200, err) {
			return false
		}
		if !bytes.Equal(bufs[w].Bytes(), q.want) {
			b.measure.fail()
			return false
		}
		if traced && len(logs[w]) < sc.replayReads/workers() {
			logs[w] = append(logs[w], p)
		}
		return true
	}

	var before counters
	if b.tr != nil {
		before, _ = d.c.scrape(&b.setup)
	}
	start := time.Now()
	b.startClock(start)
	openEnd := start.Add(time.Duration(sc.openShare * float64(b.cfg.window)))
	open := openLoop(b, start, openEnd, sc.gaitRate, workers(), nil, op)
	capacity := closedLoop(b, start.Add(b.cfg.window), workers(), op)
	b.headline("gait", open, split(0, openEnd.Sub(start), 10))
	b.throughput("closed-loop lookups per second", rate(capacity, split(openEnd.Sub(start), b.cfg.window, 10)))
	b.logf("open loop rate=%.0f/s sent=%d", sc.gaitRate, open.sent)
	if b.tr == nil {
		return nil
	}

	after, _ := d.c.scrape(&b.check)
	in := layerInputs{load: open, sent: open.sent + capacity.sent, daemon: after.sub(before), rp: newReplay(b.tr)}
	rp := in.rp
	// Warm the replay's cache as the daemon's was, untraced.
	rp.tr = nil
	for _, t := range targets {
		for _, q := range t.queries {
			if _, err := rp.read(t.id, store.HashOf(t.snap).Hex(), bytesLoader(t.snap), q); err != nil {
				return err
			}
		}
	}
	rp.tr, rp.decode, rp.lookupNS, rp.encodeNS = b.tr, nil, nil, nil
	for _, l := range logs {
		for _, p := range l {
			t := &targets[p.t]
			if _, err := rp.read(t.id, store.HashOf(t.snap).Hex(), bytesLoader(t.snap), t.queries[p.q]); err != nil {
				return err
			}
		}
	}
	b.setLayers(in)
	return nil
}
