package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// layer is a span's layer: the HTTP boundary on both sides, and the
// exported functions the traced replay calls into.
type layer uint8

const (
	lClient   layer = iota // one HTTP call as the client sees it
	lHandler               // the serve.NewAPI handler serving it
	lNew                   // leonardo.RunSpec.NewRunner
	lStep                  // leonardo.Runner.Step
	lSnapshot              // leonardo.Runner.Snapshot
	lPut                   // store.Store.Put
	lLink                  // store.Store.Link
	lGet                   // store.Store.Get
	lOpen                  // store.Open
	lCacheGet              // gaitserve.Cache.Get
	lLookup                // repertoire.Archive.Lookup (block of lookupBlock calls)
	lEncode                // gaitserve.AppendLookup (block of lookupBlock calls)
	nLayers
)

var layerNames = [nLayers]string{
	"http.client", "serve.handler", "engine.new", "engine.step", "engine.snapshot",
	"store.put", "store.link", "store.get", "store.open",
	"gaitserve.cache_get", "repertoire.lookup", "gaitserve.encode",
}

// Span tags: the API operation of an HTTP span, the run kind of an
// engine span.
const (
	tagNone uint8 = iota
	tagSubmit
	tagEvents
	tagSnapshot
	tagInfo
	tagGait
	tagHealth
	tagMetrics
	tagGAP
	tagIsland
	tagCircuit
	tagLanePack
	tagRepertoire
	nTags
)

var tagNames = [nTags]string{
	"", "submit", "events", "snapshot", "info", "gait", "healthz", "metrics",
	"gap", "island", "gapcirc", "lanepack", "repertoire",
}

// kindTags lists the run-kind tags in metric order.
var kindTags = []uint8{tagGAP, tagIsland, tagCircuit, tagLanePack, tagRepertoire}

func kindTag(kind string) uint8 {
	for _, t := range kindTags {
		if tagNames[t] == kind {
			return t
		}
	}
	return tagNone
}

// span is one timed call. Spans of one request or one run share ID;
// Parent is the index of the span that caused this one (-1 for none).
type span struct {
	ID         uint64
	Parent     int32
	Layer      layer
	Tag        uint8
	Start, End int64 // nanoseconds since the tracer started; End < 0 while open
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID allocates a request or run id.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) begin(id uint64, parent int32, l layer, tag uint8) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: l, Tag: tag, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// spanHeader carries "id/parent/tag" from a traced client call to the
// handler wrapper, which records the handler span as its child.
const spanHeader = "X-Leobench-Span"

// handler wraps the API so requests that carry spanHeader get a
// handler span. Untraced runs do not install it.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		v := req.Header.Get(spanHeader)
		if v == "" {
			h.ServeHTTP(w, req)
			return
		}
		parts := strings.SplitN(v, "/", 3)
		if len(parts) != 3 {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(parts[0], 10, 64)
		parent, _ := strconv.ParseInt(parts[1], 10, 32)
		tag, _ := strconv.ParseUint(parts[2], 10, 8)
		i := t.begin(id, int32(parent), lHandler, uint8(tag))
		h.ServeHTTP(w, req)
		t.end(i)
	})
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the finished spans of one layer,
// restricted to one tag unless tag is tagNone.
func (t *tracer) durations(l layer, tag uint8) dist {
	var d dist
	for _, s := range t.closed() {
		if s.Layer == l && (tag == tagNone || s.Tag == tag) {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// wire returns, for each traced request that is not an event stream,
// the client span minus its handler span: the time spent in the HTTP
// client, the transport and the server's connection handling.
func (t *tracer) wire() dist {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var d dist
	for _, s := range spans {
		if s.Layer != lHandler || s.End < 0 || s.Parent < 0 || int(s.Parent) >= len(spans) {
			continue
		}
		c := spans[s.Parent]
		if c.Layer != lClient || c.End < 0 || c.Tag == tagEvents {
			continue
		}
		d = append(d, float64((c.End-c.Start)-(s.End-s.Start)))
	}
	return d
}

// selfTimes sums each layer's self time: a span's duration minus the
// part its child spans cover.
func selfTimes(all []span) (self [nLayers]time.Duration, count [nLayers]int) {
	child := make(map[int32]int64)
	for _, s := range all {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range all {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start - child[int32(i)]
		if d < 0 {
			d = 0
		}
		self[s.Layer] += time.Duration(d)
		count[s.Layer]++
	}
	return self, count
}

// summarize prints self time per layer.
func (t *tracer) summarize(b *bench) {
	if t == nil {
		return
	}
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self, count := selfTimes(all)
	order := make([]int, 0, nLayers)
	for l := range self {
		if count[l] > 0 {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	for _, l := range order {
		b.logf("self %-20s spans=%-7d self=%.3fms mean=%.2fus", layerNames[l], count[l],
			float64(self[l])/1e6, float64(self[l])/1e3/float64(count[l]))
	}
}

// write stores every span as one JSON line under the benchmark's build
// directory, replacing the previous trace of the same workload.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range all {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"layer":%q,"tag":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, layerNames[s.Layer], tagNames[s.Tag], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
