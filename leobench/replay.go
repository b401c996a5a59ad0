package main

import (
	"fmt"
	"time"

	"leonardo"
	"leonardo/internal/gaitserve"
	"leonardo/internal/repertoire"
	"leonardo/internal/store"
)

// replay re-issues a workload's operations through the exported
// functions of each layer, in the order serve's runLoop, checkpoint and
// Archive call them and at the daemon's checkpoint stride, so a traced
// run can span every layer from outside the daemon:
//
//	runs:  RunSpec.NewRunner, then Runner.Step in strides, each stride
//	       ending in Runner.Snapshot, store.Put and store.Link, plus
//	       the final checkpoint the driver writes after the last step
//	reads: gaitserve.Cache.Get keyed by the snapshot hash (store.Get
//	       on a miss of a stored archive), Archive.Lookup, and
//	       gaitserve.AppendLookup
//
// It also counts the work each layer did.
type replay struct {
	tr    *tracer
	st    *store.Store // nil when the workload's replay touches no store
	cache *gaitserve.Cache
	buf   []byte

	evals, gens, ops   int64
	evalTime           time.Duration // stepping time of the kinds that evaluate fitness
	cycles             float64
	cycleTime          time.Duration // stepping time of the gate-level kinds
	epochs, migrations int64
	repEvals, accepted int64
	fill               []float64
	snapBytes          dist
	bytesPut           int64
	decode             dist // self time of Cache.Get calls that decoded, ns
	lookupNS, encodeNS dist
}

func newReplay(tr *tracer) *replay {
	return &replay{tr: tr, cache: gaitserve.NewCache(0)}
}

// openStore opens the store under a (closed) daemon's spool.
func (rp *replay) openStore(dir string) error {
	i := rp.tr.begin(rp.tr.newID(), -1, lOpen, tagNone)
	st, err := store.Open(dir)
	rp.tr.end(i)
	rp.st = st
	return err
}

// run drives one spec to completion under the given store link name.
// onCheckpoint sees each checkpoint's hash and bytes after they are
// stored.
func (rp *replay) run(spec leonardo.RunSpec, name string, onCheckpoint func(store.Hash, []byte) error) error {
	id := rp.tr.newID()
	tag := kindTag(spec.Kind)
	i := rp.tr.begin(id, -1, lNew, tag)
	r, err := spec.NewRunner()
	rp.tr.end(i)
	if err != nil {
		return fmt.Errorf("replay %s: %w", spec.Kind, err)
	}
	var stepping time.Duration
	for !r.Done() {
		for k := 0; k < checkpointStride && !r.Done(); k++ {
			s := rp.tr.begin(id, -1, lStep, tag)
			err := r.Step()
			stepping += rp.tr.end(s)
			if err != nil {
				return fmt.Errorf("replay %s step: %w", spec.Kind, err)
			}
		}
		if err := rp.checkpoint(id, tag, r, name, onCheckpoint); err != nil {
			return err
		}
	}
	if err := rp.checkpoint(id, tag, r, name, onCheckpoint); err != nil {
		return err
	}
	rp.count(spec, r, stepping)
	return nil
}

func (rp *replay) checkpoint(id uint64, tag uint8, r leonardo.Runner, name string, onCheckpoint func(store.Hash, []byte) error) error {
	i := rp.tr.begin(id, -1, lSnapshot, tag)
	snap := r.Snapshot()
	rp.tr.end(i)
	rp.snapBytes = append(rp.snapBytes, float64(len(snap)))
	h := store.HashOf(snap)
	if rp.st != nil {
		p := rp.tr.begin(id, -1, lPut, tag)
		sh, err := rp.st.Put(snap)
		rp.tr.end(p)
		if err != nil {
			return err
		}
		rp.bytesPut += int64(len(snap))
		l := rp.tr.begin(id, -1, lLink, tag)
		err = rp.st.Link(name, sh)
		rp.tr.end(l)
		if err != nil {
			return err
		}
		h = sh
	}
	if onCheckpoint != nil {
		return onCheckpoint(h, snap)
	}
	return nil
}

// count adds a finished run's work to the layer counters.
func (rp *replay) count(spec leonardo.RunSpec, r leonardo.Runner, stepping time.Duration) {
	ev := r.Event()
	switch run := r.(type) {
	case *leonardo.Run:
		rp.gens += int64(ev.Generation)
		rp.evals += int64(ev.Evaluations)
		rp.ops += int64(ev.Tournaments + ev.Crossovers + ev.Mutations)
		rp.evalTime += stepping
	case *leonardo.IslandRun:
		rp.gens += int64(ev.Generation * spec.Islands)
		rp.evals += int64(ev.Evaluations)
		rp.ops += int64(ev.Tournaments + ev.Crossovers + ev.Mutations)
		rp.evalTime += stepping
		rp.epochs += int64(run.Epoch())
		rp.migrations += int64(run.Result().Migrations)
	case *leonardo.LanePackRun:
		demes := spec.Islands
		if demes == 0 {
			demes = leonardo.DefaultLanePackDemes
		}
		// Every lane view reports the shared simulator clock.
		rp.cycles += float64(ev.Cycle) / float64(demes)
		rp.cycleTime += stepping
		rp.epochs += int64(run.Epoch())
		rp.migrations += int64(run.Result().Migrations)
	case *leonardo.CircuitRun:
		rp.cycles += float64(ev.Cycle)
		rp.cycleTime += stepping
	case *leonardo.RepertoireRun:
		res := run.Result()
		rp.evals += int64(res.Evaluations)
		rp.evalTime += stepping
		rp.repEvals += int64(res.Evaluations)
		rp.accepted += int64(res.Adds + res.Improvements)
		rp.fill = append(rp.fill, float64(res.Filled)/float64(res.Cells))
	}
}

// lookupBlock is how many calls one Lookup or AppendLookup timing
// covers; single calls take tens of nanoseconds, near the clock's own
// cost.
const lookupBlock = 16

// read serves one gait query the way the daemon does: Cache.Get for the
// run at its snapshot hash (load runs only on a miss), then Lookup and
// AppendLookup. It reports whether the cache decoded.
func (rp *replay) read(run, hash string, load func(id uint64, parent int32) ([]byte, error), q query) (bool, error) {
	id := rp.tr.newID()
	before := rp.cache.Stats().Decodes
	var loading time.Duration
	c := rp.tr.begin(id, -1, lCacheGet, tagGait)
	t0 := time.Now()
	arch, err := rp.cache.Get(run, hash, func() ([]byte, error) {
		l0 := time.Now()
		b, err := load(id, c)
		loading = time.Since(l0)
		return b, err
	})
	total := time.Since(t0)
	rp.tr.end(c)
	if err != nil {
		return false, err
	}
	decoded := rp.cache.Stats().Decodes > before
	if decoded {
		rp.decode = append(rp.decode, durNS(total-loading))
	}

	var el repertoire.Elite
	var ok bool
	l := rp.tr.begin(id, -1, lLookup, tagGait)
	t0 = time.Now()
	for k := 0; k < lookupBlock; k++ {
		el, ok = arch.Lookup(q.heading, q.stride)
	}
	rp.lookupNS = append(rp.lookupNS, durNS(time.Since(t0))/lookupBlock)
	rp.tr.end(l)
	if !ok {
		return decoded, fmt.Errorf("replay: run %s has no gait at (%v, %v)", run, q.heading, q.stride)
	}
	h, s, _ := arch.Grid().Bin(q.heading, q.stride)
	e := rp.tr.begin(id, -1, lEncode, tagGait)
	t0 = time.Now()
	for k := 0; k < lookupBlock; k++ {
		rp.buf = gaitserve.AppendLookup(rp.buf[:0], run, q.heading, q.stride, h, s, el)
	}
	rp.encodeNS = append(rp.encodeNS, durNS(time.Since(t0))/lookupBlock)
	rp.tr.end(e)
	return decoded, nil
}

// storeLoader loads a stored archive by hash, spanned as store.Get.
func (rp *replay) storeLoader(h store.Hash) func(uint64, int32) ([]byte, error) {
	return func(id uint64, parent int32) ([]byte, error) {
		g := rp.tr.begin(id, parent, lGet, tagGait)
		b, err := rp.st.Get(h)
		rp.tr.end(g)
		return b, err
	}
}

// bytesLoader serves archive bytes already in memory, as the daemon
// does for a live run's latest checkpoint.
func bytesLoader(b []byte) func(uint64, int32) ([]byte, error) {
	return func(uint64, int32) ([]byte, error) { return b, nil }
}
