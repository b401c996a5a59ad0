package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"time"

	"sync"

	"leonardo"
	"leonardo/internal/genome"
	"leonardo/internal/island"
)

// Cluster support: K leonardod nodes running one archipelago. The
// layering (DESIGN.md §12):
//
//	node registry   — the sorted ClusterConfig.Peers ids; this node's
//	                  position is its shard index, so every node derives
//	                  the identical fleet layout from the same config.
//	epoch clock     — each cluster run advances in lockstep epochs; every
//	                  epoch runs two barriers (exchange, then status),
//	                  each an all-to-all batch exchange that completes
//	                  only when every peer's batch for that epoch has
//	                  arrived. Timeouts degrade to no-migration rather
//	                  than stalling the fleet.
//	migration inbox — idempotent delivery: a batch is persisted to the
//	                  durable inbox before it is acknowledged, duplicates
//	                  (epoch at or below the phase watermark, or already
//	                  present) are acknowledged without being re-applied,
//	                  and senders retry with backoff until acknowledged.
//
// The migration logic itself — latch, exchange, commit — is
// island.Archipelago.migrate, shared verbatim with the in-process
// transports; this file only moves epoch-stamped batches over HTTP.

// Cluster errors.
var (
	// ErrNoCluster rejects cluster operations on a node booted without
	// cluster configuration (HTTP 400).
	ErrNoCluster = errors.New("serve: node has no cluster configuration")
	// errEpochTimeout is the internal signal that an epoch barrier gave
	// up waiting for peers; the transport degrades to no-migration.
	errEpochTimeout = errors.New("serve: epoch barrier timeout")
)

// DefaultEpochTimeout bounds an epoch barrier when ClusterConfig leaves
// EpochTimeout zero.
const DefaultEpochTimeout = 30 * time.Second

// runNameRE restricts cluster run names and node ids: they appear in
// inbox filenames with "." as the field separator.
var runNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ClusterConfig joins this node to a leonardod fleet.
type ClusterConfig struct {
	// NodeID names this node; it must be a key of Peers.
	NodeID string
	// Peers maps node id → base URL (e.g. "http://10.0.0.2:8080") for
	// every node of the fleet, this node included (its own URL is never
	// dialed). Every node must be configured with the same id set: the
	// sorted ids are the node registry, and a node's position in it is
	// its shard index.
	Peers map[string]string
	// EpochTimeout bounds how long an epoch barrier waits for remote
	// batches before degrading to no-migration for that epoch
	// (0 = DefaultEpochTimeout). Degrading forfeits bit-identical
	// replay but keeps the fleet from stalling on a dead peer.
	EpochTimeout time.Duration
}

// validate checks the fleet registry for use as the shard layout.
//
//leo:allow maprange validation errors only; reporting any one offending peer is correct
func (c ClusterConfig) validate() error {
	if !runNameRE.MatchString(c.NodeID) {
		return fmt.Errorf("serve: cluster node id %q must match %s", c.NodeID, runNameRE)
	}
	if len(c.Peers) == 0 {
		return errors.New("serve: cluster config has no peers")
	}
	if _, ok := c.Peers[c.NodeID]; !ok {
		return fmt.Errorf("serve: cluster node id %q is not in the peer set", c.NodeID)
	}
	for id, url := range c.Peers {
		if !runNameRE.MatchString(id) {
			return fmt.Errorf("serve: cluster peer id %q must match %s", id, runNameRE)
		}
		if id != c.NodeID && url == "" {
			return fmt.Errorf("serve: cluster peer %q has no URL", id)
		}
	}
	return nil
}

// Barrier phases. Exchange carries the epoch's emigrants; status
// carries the local done flag that lets a convergence anywhere end the
// fleet in the same epoch.
const (
	phaseExchange = "exchange"
	phaseStatus   = "status"
)

// wireEmigrant is one champion on the wire, addressed by global deme
// index. The genome crosses as its packed bit words plus the layout.
type wireEmigrant struct {
	From  int      `json:"from"`
	To    int      `json:"to"`
	Steps int      `json:"steps"`
	Legs  int      `json:"legs"`
	Words []uint64 `json:"words"`
}

// wireBatch is the body of POST /v1/migrate: everything one node tells
// one peer about one (run, phase, epoch). Exchange batches are sent
// even when empty — the barrier counts arrivals, not emigrants.
type wireBatch struct {
	Run       string         `json:"run"`
	Src       string         `json:"src"`
	Epoch     int            `json:"epoch"`
	Phase     string         `json:"phase"`
	Done      bool           `json:"done,omitempty"`
	Emigrants []wireEmigrant `json:"emigrants,omitempty"`
}

// migrateAck is the body of a successful POST /v1/migrate response.
type migrateAck struct {
	// Status is "accepted" for a first delivery, "duplicate" for a
	// re-delivery (acknowledged, not re-applied).
	Status string `json:"status"`
}

const (
	ackAccepted  = "accepted"
	ackDuplicate = "duplicate"
)

func toWire(e leonardo.Emigrant) wireEmigrant {
	return wireEmigrant{
		From:  e.From,
		To:    e.To,
		Steps: e.Genome.Layout.Steps,
		Legs:  e.Genome.Layout.Legs,
		Words: e.Genome.Bits.Words(),
	}
}

func fromWire(we wireEmigrant, epoch int) (leonardo.Emigrant, error) {
	ly := genome.Layout{Steps: we.Steps, Legs: we.Legs}
	if ly.Steps <= 0 || ly.Legs <= 0 || len(we.Words) != (ly.Bits()+63)/64 {
		return leonardo.Emigrant{}, fmt.Errorf("serve: emigrant %d→%d has layout %dx%d with %d words",
			we.From, we.To, we.Steps, we.Legs, len(we.Words))
	}
	return leonardo.Emigrant{
		Epoch: epoch,
		From:  we.From,
		To:    we.To,
		Genome: genome.Extended{
			Layout: ly,
			Bits:   genome.BitStringFromWords(we.Words, ly.Bits()),
		},
	}, nil
}

// cluster is the fleet half of a Manager: registry, sessions, inbox,
// and the HTTP send path.
type cluster struct {
	cfg   ClusterConfig
	ids   []string // sorted node ids — the registry
	self  int      // this node's index in ids
	peers []string // ids minus this node, sorted
	met   *clusterMetrics
	logf  func(string, ...any)

	client *http.Client
	inbox  *inbox // nil when the manager has no spool

	ctx    context.Context // closed by close(); unblocks waits and senders
	cancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*session
	pending  map[string][]wireBatch // inbox batches loaded at boot, not yet adopted
}

func newCluster(cfg ClusterConfig, inboxDir string, logf func(string, ...any)) (*cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EpochTimeout <= 0 {
		cfg.EpochTimeout = DefaultEpochTimeout
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		//leo:allow maprange collecting keys to sort; the sorted slice is the deterministic registry
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c := &cluster{
		cfg:      cfg,
		ids:      ids,
		logf:     logf,
		met:      newClusterMetrics(),
		client:   &http.Client{Timeout: 10 * time.Second},
		sessions: make(map[string]*session),
		pending:  make(map[string][]wireBatch),
	}
	for i, id := range ids {
		if id == cfg.NodeID {
			c.self = i
		} else {
			c.peers = append(c.peers, id)
		}
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if inboxDir != "" {
		ib, err := newInbox(inboxDir)
		if err != nil {
			c.cancel()
			return nil, err
		}
		c.inbox = ib
		c.pending = ib.loadAll(logf)
		if c.pending == nil {
			c.pending = make(map[string][]wireBatch)
		}
	}
	return c, nil
}

// shard returns this node's placement in the fleet.
func (c *cluster) shard() leonardo.ClusterShard {
	return leonardo.ClusterShard{Nodes: len(c.ids), Index: c.self}
}

// close releases every blocked barrier wait and sender retry loop.
// Blocked cluster runs then fail their current step with an error
// wrapping context.Canceled, which the manager classifies as
// interrupted — their checkpoints stay at the last completed barrier.
func (c *cluster) close() { c.cancel() }

// session is the per-run migration state: the received-batch store,
// the per-phase watermarks (highest barrier this node has completed),
// and the wakeup plumbing for barrier waits.
type session struct {
	c   *cluster
	run string

	mu      sync.Mutex
	aborted bool
	abort   chan struct{} // closed on user cancel of this run
	pulse   chan struct{} // replaced after every delivery
	batches map[batchKey]wireBatch
	mark    map[string]int // phase → highest completed barrier epoch
}

type batchKey struct {
	src   string
	phase string
	epoch int
}

// openSession returns the session for a run, creating it if needed.
// fresh replaces any prior session and clears the run's durable inbox —
// a new submission under an old name must not replay the old
// incarnation's batches.
func (c *cluster) openSession(run string, fresh bool) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[run]; ok && !fresh {
		return s
	}
	s := &session{
		c: c, run: run,
		abort:   make(chan struct{}),
		pulse:   make(chan struct{}),
		batches: make(map[batchKey]wireBatch),
		mark:    map[string]int{phaseExchange: 0, phaseStatus: 0},
	}
	if fresh {
		delete(c.pending, run)
		if c.inbox != nil {
			c.inbox.prune(run, 0, true)
		}
	} else {
		for _, b := range c.pending[run] {
			s.batches[batchKey{b.Src, b.Phase, b.Epoch}] = b
		}
		delete(c.pending, run)
	}
	c.sessions[run] = s
	return s
}

// lookup returns the session for a run, or nil.
func (c *cluster) lookup(run string) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[run]
}

// abortRun wakes a cancelled run's barrier waits so cancellation does
// not have to ride out the epoch timeout.
func (c *cluster) abortRun(run string) {
	s := c.lookup(run)
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.aborted {
		s.aborted = true
		close(s.abort)
	}
	s.mu.Unlock()
}

// prune drops durable inbox batches the run's checkpoint has replayed
// past (called after every successful snapshot write).
func (c *cluster) prune(run string, throughEpoch int) {
	if c.inbox != nil {
		c.inbox.prune(run, throughEpoch, false)
	}
}

// setMark fast-forwards the session's watermarks to a resumed run's
// checkpoint epoch: barriers at or below it were completed before the
// crash, so re-deliveries for them are duplicates by definition. Stale
// in-memory batches at or below the mark are dropped (the run will
// never wait on them); later epochs stay — they are exactly the
// batches a replay needs.
func (s *session) setMark(epoch int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ph := range []string{phaseExchange, phaseStatus} {
		if epoch > s.mark[ph] {
			s.mark[ph] = epoch
		}
	}
	for k := range s.batches {
		if k.epoch <= epoch {
			delete(s.batches, k)
		}
	}
}

// deliver applies one inbound batch with idempotent semantics: persist
// first, acknowledge after. A duplicate — epoch at or below the phase
// watermark, or a (src, phase, epoch) already present — is acknowledged
// without being stored again, so sender retries are harmless.
func (s *session) deliver(b wireBatch) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Epoch <= s.mark[b.Phase] {
		return ackDuplicate, nil
	}
	k := batchKey{b.Src, b.Phase, b.Epoch}
	if _, ok := s.batches[k]; ok {
		return ackDuplicate, nil
	}
	if s.c.inbox != nil {
		// Durable before acknowledged: an ack is a promise the batch
		// survives our crash, which is what lets the sender stop
		// retrying while we may still need the batch to replay.
		if err := s.c.inbox.save(b); err != nil {
			return "", err
		}
	}
	s.batches[k] = b
	close(s.pulse)
	s.pulse = make(chan struct{})
	return ackAccepted, nil
}

// wait blocks until every peer's (phase, epoch) batch has arrived and
// returns them in registry order, or fails with errEpochTimeout after
// the configured epoch timeout, or with an error wrapping
// context.Canceled on node shutdown or run cancellation.
func (s *session) wait(phase string, epoch int) ([]wireBatch, error) {
	deadline := time.NewTimer(s.c.cfg.EpochTimeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		got := make([]wireBatch, 0, len(s.c.peers))
		for _, id := range s.c.peers {
			b, ok := s.batches[batchKey{id, phase, epoch}]
			if !ok {
				break
			}
			got = append(got, b)
		}
		pulse := s.pulse
		s.mu.Unlock()
		if len(got) == len(s.c.peers) {
			return got, nil
		}
		select {
		case <-pulse:
		case <-deadline.C:
			return nil, errEpochTimeout
		case <-s.abort:
			return nil, fmt.Errorf("serve: run %q cancelled at the epoch %d %s barrier: %w",
				s.run, epoch, phase, context.Canceled)
		case <-s.c.ctx.Done():
			return nil, fmt.Errorf("serve: node shutdown at the epoch %d %s barrier: %w",
				epoch, phase, context.Canceled)
		}
	}
}

// complete marks the (phase, epoch) barrier finished and releases the
// consumed batches from memory (the durable copies live until the next
// checkpoint prune).
func (s *session) complete(phase string, epoch int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.mark[phase] {
		s.mark[phase] = epoch
	}
	for k := range s.batches {
		if k.phase == phase && k.epoch <= epoch {
			delete(s.batches, k)
		}
	}
}

// send dispatches one batch to one peer and retries with exponential
// backoff until it is acknowledged (accepted or duplicate) or the node
// shuts down. Retrying past a peer restart is what pairs with the
// receiver's idempotent inbox to make delivery exactly-once in effect.
func (c *cluster) send(peerID string, b wireBatch) {
	body, err := json.Marshal(b)
	if err != nil {
		c.logf("serve: cluster: marshal batch for %s: %v", peerID, err)
		return
	}
	url := c.cfg.Peers[peerID] + "/v1/migrate"
	// One goroutine per in-flight batch: it touches no evolution state —
	// the deterministic commit happens on the receiver, after its own
	// barrier — and dies as soon as the peer acknowledges.
	//leo:allow goroutine network retry loop; carries opaque bytes, never evolution state
	go func() {
		backoff := 50 * time.Millisecond
		for {
			if acked, dup := c.post(url, body); acked {
				if !dup && b.Phase == phaseExchange {
					c.met.emigrantsSent.Add(int64(len(b.Emigrants)))
				}
				return
			}
			select {
			case <-c.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
	}()
}

// post performs one POST /v1/migrate attempt; acked means the peer has
// the batch durably (accepted or duplicate).
func (c *cluster) post(url string, body []byte) (acked, duplicate bool) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, false
	}
	var ack migrateAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return false, false
	}
	return true, ack.Status == ackDuplicate
}

// transport adapts one session to island.Transport for one run: the
// archipelago's single latch-then-commit migration path calls Exchange
// and Barrier, and this type only moves the batches.
type transport struct {
	c     *cluster
	sess  *session
	demes int // global deme count (fleet layout comes from the registry)
}

func (c *cluster) transportFor(sess *session, demes int) *transport {
	return &transport{c: c, sess: sess, demes: demes}
}

// Exchange implements island.Transport over HTTP: push this epoch's
// emigrants to their owning nodes (an empty batch still goes to every
// peer — the barrier counts arrivals), then wait for every peer's
// batch. On timeout the epoch degrades to no-migration; on shutdown or
// cancel it fails the step so no torn state is ever checkpointed.
func (t *transport) Exchange(epoch int, out []leonardo.Emigrant) ([]leonardo.Emigrant, error) {
	nodes := len(t.c.ids)
	outbound := make([][]wireEmigrant, nodes)
	local := make([]leonardo.Emigrant, 0, len(out))
	for _, e := range out {
		owner := island.OwnerOf(nodes, t.demes, e.To)
		if owner == t.c.self {
			local = append(local, e)
			continue
		}
		outbound[owner] = append(outbound[owner], toWire(e))
	}
	for k, id := range t.c.ids {
		if k == t.c.self {
			continue
		}
		t.c.send(id, wireBatch{
			Run: t.sess.run, Src: t.c.cfg.NodeID,
			Epoch: epoch, Phase: phaseExchange,
			Emigrants: outbound[k],
		})
	}
	if len(t.c.peers) == 0 {
		t.sess.complete(phaseExchange, epoch)
		return local, nil
	}
	batches, err := t.waitTimed(phaseExchange, epoch)
	if errors.Is(err, errEpochTimeout) {
		t.degrade(phaseExchange, epoch)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	in := local
	for _, b := range batches {
		for _, we := range b.Emigrants {
			e, err := fromWire(we, epoch)
			if err != nil {
				return nil, err
			}
			in = append(in, e)
		}
	}
	t.sess.complete(phaseExchange, epoch)
	return in, nil
}

// Barrier implements island.Transport's done handshake: every node
// reports its local done flag and learns whether any node is finished.
// A timeout degrades to the local view — the fleet may then run one
// epoch longer on some nodes, exactly the bit-identity forfeit the
// degraded mode documents.
func (t *transport) Barrier(epoch int, localDone bool) (bool, error) {
	for k, id := range t.c.ids {
		if k == t.c.self {
			continue
		}
		t.c.send(id, wireBatch{
			Run: t.sess.run, Src: t.c.cfg.NodeID,
			Epoch: epoch, Phase: phaseStatus, Done: localDone,
		})
	}
	if len(t.c.peers) == 0 {
		t.sess.complete(phaseStatus, epoch)
		return localDone, nil
	}
	batches, err := t.waitTimed(phaseStatus, epoch)
	if errors.Is(err, errEpochTimeout) {
		t.degrade(phaseStatus, epoch)
		return localDone, nil
	}
	if err != nil {
		return false, err
	}
	fleet := localDone
	for _, b := range batches {
		fleet = fleet || b.Done
	}
	t.sess.complete(phaseStatus, epoch)
	return fleet, nil
}

// waitTimed is session.wait plus the barrier-wait metric.
func (t *transport) waitTimed(phase string, epoch int) ([]wireBatch, error) {
	t0 := now()
	batches, err := t.sess.wait(phase, epoch)
	t.c.met.barrierObserved(now().Sub(t0))
	return batches, err
}

// degrade burns a timed-out barrier: the epoch completes with no
// migration (or the local done view), the watermark advances so
// late-arriving batches are acknowledged as duplicates, and the
// degraded-epoch counter records the replay forfeit.
func (t *transport) degrade(phase string, epoch int) {
	t.c.met.degradedEpochs.Add(1)
	t.c.logf("serve: cluster run %q: epoch %d %s barrier timed out after %s; degrading to no-migration",
		t.sess.run, epoch, t.c.cfg.EpochTimeout, phase)
	t.sess.complete(phase, epoch)
}

// Migrate applies one inbound migration batch (POST /v1/migrate) with
// idempotent delivery semantics and returns the acknowledgement status
// (ackAccepted or ackDuplicate). An unknown run is ErrNotFound — the
// sender retries until this node's operator submits the run.
func (m *Manager) Migrate(b wireBatch) (string, error) {
	c := m.cluster
	if c == nil {
		return "", ErrNoCluster
	}
	if b.Run == "" || !runNameRE.MatchString(b.Run) {
		return "", fmt.Errorf("%w: bad run name %q", ErrBadSpec, b.Run)
	}
	known := false
	for _, id := range c.peers {
		known = known || id == b.Src
	}
	if !known {
		return "", fmt.Errorf("%w: %q is not a peer of this node", ErrBadSpec, b.Src)
	}
	if b.Phase != phaseExchange && b.Phase != phaseStatus {
		return "", fmt.Errorf("%w: unknown phase %q", ErrBadSpec, b.Phase)
	}
	if b.Epoch < 1 {
		return "", fmt.Errorf("%w: epoch %d", ErrBadSpec, b.Epoch)
	}
	s := c.lookup(b.Run)
	if s == nil {
		return "", fmt.Errorf("%w: no cluster run named %q on this node (yet)", ErrNotFound, b.Run)
	}
	st, err := s.deliver(b)
	if err != nil {
		return "", err
	}
	switch st {
	case ackAccepted:
		if b.Phase == phaseExchange {
			c.met.emigrantsReceived.Add(int64(len(b.Emigrants)))
		}
	case ackDuplicate:
		c.met.duplicateDeliveries.Add(1)
	}
	return st, nil
}

// clusterRunner builds this node's shard for a cluster spec: fresh
// when snap is nil, else resumed from the run's spool snapshot. fresh
// is the Submit path: the run name must be free and any stale inbox
// state under it is dropped (a new incarnation must not replay an old
// one's batches). The boot paths instead ADOPT the inbox — peers
// acknowledged those batches before the crash and will never resend
// them — and run under m.mu, so they must not re-take it. A resumed
// shard's session watermarks fast-forward to the checkpoint epoch; the
// epochs after it replay from the durable inbox and from peers'
// retries.
func (m *Manager) clusterRunner(spec leonardo.RunSpec, snap []byte, fresh bool) (leonardo.Runner, error) {
	c := m.cluster
	if c == nil {
		return nil, fmt.Errorf("%q runs need a cluster-configured node (start leonardod with -node-id and -peers)", leonardo.KindCluster)
	}
	if !runNameRE.MatchString(spec.Name) {
		return nil, fmt.Errorf("cluster runs need a name matching %s (it keys the fleet's migration traffic)", runNameRE)
	}
	if fresh {
		if err := m.checkClusterNameFree(spec.Name); err != nil {
			return nil, err
		}
	}
	p := spec.IslandParams()
	sess := c.openSession(spec.Name, fresh)
	tr := c.transportFor(sess, p.Demes)
	if snap == nil {
		cr, err := leonardo.NewClusterRun(p, c.shard(), tr)
		if err != nil {
			return nil, err
		}
		return cr, nil
	}
	cr, err := leonardo.ResumeCluster(snap, tr)
	if err != nil {
		return nil, err
	}
	if got, want := cr.Shard(), c.shard(); got != want {
		return nil, fmt.Errorf("cluster snapshot was taken as shard %d of %d, this node is %d of %d — the fleet shape changed under a live run",
			got.Index, got.Nodes, want.Index, want.Nodes)
	}
	sess.setMark(cr.Epoch())
	return cr, nil
}

// checkClusterNameFree rejects a submission whose name is already
// carried by a non-terminal cluster run: two live runs sharing a name
// would interleave on one migration session.
func (m *Manager) checkClusterNameFree(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		r := m.runs[id]
		if r.spec.Kind != leonardo.KindCluster || r.spec.Name != name {
			continue
		}
		r.mu.Lock()
		terminal := r.state.Terminal()
		r.mu.Unlock()
		if !terminal {
			return fmt.Errorf("cluster run name %q is already active as %s", name, r.id)
		}
	}
	return nil
}
