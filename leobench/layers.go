package main

import "fmt"

// layerTable lists every per-layer metric with its unit, in report
// order. A traced run prints all of them on every workload; a layer the
// workload bypasses reads 0 (README.md lists the zeros each workload
// predicts).
var layerTable = []struct{ name, unit string }{
	{"serve.submit_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.gait_handler_us.p50", "us"},
	{"serve.gait_handler_us.p99", "us"},
	{"serve.wire_us", "us"},
	{"serve.refused", "count"},
	{"serve.generations", "count"},
	{"serve.evaluations", "count"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.checkpoint_us", "us"},
	{"engine.step_us.gap", "us"},
	{"engine.step_us.island", "us"},
	{"engine.step_us.gapcirc", "us"},
	{"engine.step_us.lanepack", "us"},
	{"engine.step_us.repertoire", "us"},
	{"engine.steps.gap", "count"},
	{"engine.steps.island", "count"},
	{"engine.steps.gapcirc", "count"},
	{"engine.steps.lanepack", "count"},
	{"engine.steps.repertoire", "count"},
	{"engine.snapshot_us", "us"},
	{"engine.snapshot_bytes", "bytes"},
	{"fitness.evals", "count"},
	{"fitness.evals_per_s", "1/s"},
	{"gap.generations", "count"},
	{"gap.ops", "count"},
	{"logic.cycles", "count"},
	{"logic.cycles_per_s", "1/s"},
	{"island.epochs", "count"},
	{"island.migrations", "count"},
	{"island.epoch_us", "us"},
	{"repertoire.accept_ratio", "ratio"},
	{"repertoire.fill_ratio", "ratio"},
	{"repertoire.lookup_ns", "ns"},
	{"store.put_us.p50", "us"},
	{"store.put_us.p99", "us"},
	{"store.link_us", "us"},
	{"store.get_us", "us"},
	{"store.bytes_put", "bytes"},
	{"store.open_ms", "ms"},
	{"gaitserve.hit_ratio", "ratio"},
	{"gaitserve.decodes", "count"},
	{"gaitserve.evictions", "count"},
	{"gaitserve.decode_us", "us"},
	{"gaitserve.encode_ns", "ns"},
	{"gaitserve.sse_events", "count"},
	{"load.late_us.p99", "us"},
	{"load.p50_ms", "ms"},
	{"load.p90_ms", "ms"},
	{"load.p99_ms", "ms"},
	{"load.sent", "count"},
	{"load.fail_ratio", "ratio"},
	{"mem.peak_rss_mb", "MiB"},
	{"trace.overhead_ratio", "ratio"},
}

// setLayer sets one per-layer metric, taking its unit from layerTable.
func (b *bench) setLayer(name string, v float64) {
	for _, m := range layerTable {
		if m.name == name {
			b.layerMetric(name, m.unit, v)
			return
		}
	}
	panic(fmt.Sprintf("leobench: per-layer metric %q is not in layerTable", name))
}

// layerInputs is what a traced workload measured beside its spans.
type layerInputs struct {
	load      *loadResult // the load generator's latency samples
	sent      int64       // operations the load generator sent
	queueWait dist        // run Started minus Submitted, ns
	daemon    counters    // the daemon's own counters over the window
	rp        *replay
}

// setLayers derives every per-layer metric from the spans, the replay
// counters and the daemon's own counters. The serve.* counters and the
// gait-cache counters come from the daemon itself, so the zeros a
// workload predicts for them can fail; the engine, fitness, logic,
// island, repertoire and store metrics come from the replay.
func (b *bench) setLayers(in layerInputs) {
	for _, m := range layerTable {
		b.layerMetric(m.name, m.unit, 0)
	}
	tr, rp := b.tr, in.rp
	const us, ms = 1e3, 1e6

	b.setLayer("serve.submit_us", tr.durations(lHandler, tagSubmit).q(0.5)/us)
	b.setLayer("serve.queue_wait_ms", in.queueWait.q(0.5)/ms)
	gh := tr.durations(lHandler, tagGait)
	b.setLayer("serve.gait_handler_us.p50", gh.q(0.5)/us)
	b.setLayer("serve.gait_handler_us.p99", gh.q(0.99)/us)
	b.setLayer("serve.wire_us", tr.wire().q(0.5)/us)
	b.setLayer("serve.refused", float64(b.setup.refused.Load()+b.measure.refused.Load()+b.check.refused.Load()))
	dc := in.daemon
	b.setLayer("serve.generations", dc.generations)
	b.setLayer("serve.evaluations", dc.evaluations)
	b.setLayer("serve.snapshot_bytes", dc.snapBytes)
	if dc.snapshots > 0 {
		b.setLayer("serve.checkpoint_us", dc.snapSeconds/dc.snapshots*1e6)
	}

	for _, k := range kindTags {
		steps := tr.durations(lStep, k)
		b.setLayer("engine.step_us."+tagNames[k], steps.q(0.5)/us)
		b.setLayer("engine.steps."+tagNames[k], float64(len(steps)))
	}
	b.setLayer("engine.snapshot_us", tr.durations(lSnapshot, tagNone).q(0.5)/us)
	b.setLayer("engine.snapshot_bytes", rp.snapBytes.q(0.5))

	b.setLayer("fitness.evals", float64(rp.evals))
	if rp.evalTime > 0 {
		b.setLayer("fitness.evals_per_s", float64(rp.evals)/rp.evalTime.Seconds())
	}
	b.setLayer("gap.generations", float64(rp.gens))
	b.setLayer("gap.ops", float64(rp.ops))
	b.setLayer("logic.cycles", rp.cycles)
	if rp.cycleTime > 0 {
		b.setLayer("logic.cycles_per_s", rp.cycles/rp.cycleTime.Seconds())
	}
	b.setLayer("island.epochs", float64(rp.epochs))
	b.setLayer("island.migrations", float64(rp.migrations))
	epochs := append(tr.durations(lStep, tagIsland), tr.durations(lStep, tagLanePack)...)
	b.setLayer("island.epoch_us", epochs.q(0.5)/us)

	if rp.repEvals > 0 {
		b.setLayer("repertoire.accept_ratio", float64(rp.accepted)/float64(rp.repEvals))
	}
	b.setLayer("repertoire.fill_ratio", median(rp.fill))
	b.setLayer("repertoire.lookup_ns", rp.lookupNS.q(0.5))

	puts := tr.durations(lPut, tagNone)
	b.setLayer("store.put_us.p50", puts.q(0.5)/us)
	b.setLayer("store.put_us.p99", puts.q(0.99)/us)
	b.setLayer("store.link_us", tr.durations(lLink, tagNone).q(0.5)/us)
	b.setLayer("store.get_us", tr.durations(lGet, tagNone).q(0.5)/us)
	b.setLayer("store.bytes_put", float64(rp.bytesPut))
	b.setLayer("store.open_ms", tr.durations(lOpen, tagNone).q(0.5)/ms)

	if base := dc.hits + dc.misses; base > 0 {
		b.setLayer("gaitserve.hit_ratio", dc.hits/base)
	}
	b.setLayer("gaitserve.decodes", dc.decodes)
	b.setLayer("gaitserve.evictions", dc.evictions)
	b.setLayer("gaitserve.decode_us", rp.decode.q(0.5)/us)
	b.setLayer("gaitserve.encode_ns", rp.encodeNS.q(0.5))
	b.setLayer("gaitserve.sse_events", dc.sseEvents)

	b.setLayer("load.late_us.p99", in.load.late.q(0.99)/us)
	b.setLayer("load.p50_ms", b.loadMS[0])
	b.setLayer("load.p90_ms", b.loadMS[1])
	b.setLayer("load.p99_ms", b.loadMS[2])
	b.setLayer("load.sent", float64(in.sent))
	if u, t := in.load.lat[0].q(0.5), in.load.lat[1].q(0.5); u > 0 && t > 0 {
		b.setLayer("trace.overhead_ratio", t/u-1)
	}
	b.logf("headline untraced %s", in.load.lat[0].describe(1000))
	b.logf("headline traced   %s", in.load.lat[1].describe(1000))
	b.logf("load lateness %s", in.load.late.describe(1000))
	tr.summarize(b)
}
