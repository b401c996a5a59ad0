package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"leonardo"
	"leonardo/internal/serve"
)

// checkpointStride is the daemon's snapshot stride in engine steps; the
// traced replay checkpoints at the same stride.
const checkpointStride = 50

// daemon is an in-process leonardod: the run manager behind its HTTP
// API on a loopback listener, with a client limited to nproc
// connections.
type daemon struct {
	spool  string
	m      *serve.Manager
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	c      *client

	closeOnce sync.Once
}

// startDaemon boots a manager over the spool (reloading whatever it
// holds) and serves its API; a traced run wraps the API in the
// handler-span recorder.
func startDaemon(spool string, tr *tracer) (*daemon, error) {
	m, err := serve.New(serve.Config{
		Spool:         spool,
		Workers:       runtime.NumCPU(),
		SnapshotEvery: checkpointStride,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	h := serve.NewAPI(m)
	if tr != nil {
		h = tr.handler(h)
	}
	d := &daemon{spool: spool, m: m, srv: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	d.c = newClient("http://"+ln.Addr().String(), tr)
	return d, nil
}

// close stops serving, ends open event streams, and shuts the manager
// down; it returns once the server and every run driver have exited.
// Closing twice is harmless.
func (d *daemon) close() {
	d.closeOnce.Do(func() {
		d.srv.Close()
		<-d.served
		d.c.hc.CloseIdleConnections()
		d.m.Close()
	})
}

// client issues API calls. A traced call records a client span and
// passes its index to the handler wrapper.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	n := runtime.NumCPU()
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

// call issues one request and reads the whole response body into buf.
func (c *client) call(method, path string, body []byte, tag uint8, traced bool, buf *bytes.Buffer) (int, http.Header, error) {
	resp, si, err := c.open(method, path, body, tag, traced)
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.tr.end(si)
	return resp.StatusCode, resp.Header, err
}

// open sends a request and returns the response with its body unread
// and the index of its open client span (-1 when untraced).
func (c *client) open(method, path string, body []byte, tag uint8, traced bool) (*http.Response, int32, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	si := int32(-1)
	if traced && c.tr != nil {
		id := c.tr.newID()
		si = c.tr.begin(id, -1, lClient, tag)
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d/%d", id, si, tag))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(si)
		return nil, -1, err
	}
	return resp, si, nil
}

// submit posts a run spec and returns the new run's id.
func (c *client) submit(p *phase, spec leonardo.RunSpec, traced bool) (string, bool) {
	body, err := json.Marshal(spec)
	if err != nil {
		p.record(0, http.StatusCreated, err)
		return "", false
	}
	var buf bytes.Buffer
	status, _, err := c.call("POST", "/v1/runs", body, tagSubmit, traced, &buf)
	if !p.record(status, http.StatusCreated, err) {
		return "", false
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil || info.ID == "" {
		p.fail()
		return "", false
	}
	return info.ID, true
}

// follow reads a run's event stream until its end event; onEvent, when
// set, sees each progress event's generation. It reports whether the
// stream ended cleanly.
func (c *client) follow(p *phase, id string, traced bool, onEvent func(gen int)) bool {
	resp, si, err := c.open("GET", "/v1/runs/"+id+"/events", nil, tagEvents, traced)
	if err != nil {
		p.record(0, http.StatusOK, err)
		return false
	}
	defer func() {
		resp.Body.Close()
		c.tr.end(si)
	}()
	if resp.StatusCode != http.StatusOK {
		p.record(resp.StatusCode, http.StatusOK, nil)
		return false
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			p.record(0, http.StatusOK, fmt.Errorf("event stream of %s ended without an end event: %w", id, err))
			return false
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: end")):
			return p.record(http.StatusOK, http.StatusOK, nil)
		case onEvent != nil && bytes.HasPrefix(line, []byte("data: ")):
			var ev struct {
				Generation int `json:"generation"`
			}
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				p.record(0, http.StatusOK, err)
				return false
			}
			onEvent(ev.Generation)
		}
	}
}

// snapshot fetches a run's latest checkpoint and checks that its bytes
// hash to its ETag; it returns the bytes and their sha256.
func (c *client) snapshot(p *phase, id string, traced bool) ([]byte, [32]byte, bool) {
	var buf bytes.Buffer
	status, hdr, err := c.call("GET", "/v1/runs/"+id+"/snapshot", nil, tagSnapshot, traced, &buf)
	if !p.record(status, http.StatusOK, err) {
		return nil, [32]byte{}, false
	}
	sum := sha256.Sum256(buf.Bytes())
	if hdr.Get("ETag") != `"sha256-`+hex.EncodeToString(sum[:])+`"` {
		p.fail()
		return nil, sum, false
	}
	return buf.Bytes(), sum, true
}

// info fetches a run's registry entry.
func (c *client) info(p *phase, id string, traced bool) (serve.Info, bool) {
	var buf bytes.Buffer
	status, _, err := c.call("GET", "/v1/runs/"+id, nil, tagInfo, traced, &buf)
	if !p.record(status, http.StatusOK, err) {
		return serve.Info{}, false
	}
	var info serve.Info
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		p.fail()
		return serve.Info{}, false
	}
	return info, true
}

// healthz waits for the API to answer.
func (c *client) healthz(p *phase) bool {
	var buf bytes.Buffer
	status, _, err := c.call("GET", "/healthz", nil, tagHealth, false, &buf)
	return p.record(status, http.StatusOK, err)
}

// counters is the slice of GET /metrics the per-layer report uses: the
// daemon's own gait-cache, event-stream, evolution and checkpoint
// counters.
type counters struct {
	hits, misses, decodes, evictions, sseEvents float64
	generations, evaluations                    float64
	snapBytes, snapSeconds, snapshots           float64
}

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.decodes - b.decodes,
		a.evictions - b.evictions, a.sseEvents - b.sseEvents,
		a.generations - b.generations, a.evaluations - b.evaluations,
		a.snapBytes - b.snapBytes, a.snapSeconds - b.snapSeconds, a.snapshots - b.snapshots}
}

// scrape reads the counters from /metrics.
func (c *client) scrape(p *phase) (counters, bool) {
	var buf bytes.Buffer
	status, _, err := c.call("GET", "/metrics", nil, tagMetrics, false, &buf)
	if !p.record(status, http.StatusOK, err) {
		return counters{}, false
	}
	var cc counters
	fields := map[string]*float64{
		"leonardod_gait_cache_hits_total":          &cc.hits,
		"leonardod_gait_cache_misses_total":        &cc.misses,
		"leonardod_gait_cache_decodes_total":       &cc.decodes,
		"leonardod_gait_cache_evictions_total":     &cc.evictions,
		"leonardod_sse_events_total":               &cc.sseEvents,
		"leonardod_generations_total":              &cc.generations,
		"leonardod_evaluations_total":              &cc.evaluations,
		"leonardod_snapshot_bytes_total":           &cc.snapBytes,
		"leonardod_snapshot_latency_seconds_sum":   &cc.snapSeconds,
		"leonardod_snapshot_latency_seconds_count": &cc.snapshots,
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, ok := fields[name]; ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				*f = v
			}
		}
	}
	return cc, true
}

// runToEnd submits a spec and follows it to its end event.
func (c *client) runToEnd(p *phase, spec leonardo.RunSpec) (string, error) {
	id, ok := c.submit(p, spec, false)
	if !ok {
		return "", fmt.Errorf("submit %s seed %d refused or failed", spec.Kind, spec.Seed)
	}
	if !c.follow(p, id, false, nil) {
		return "", fmt.Errorf("following run %s failed", id)
	}
	return id, nil
}
