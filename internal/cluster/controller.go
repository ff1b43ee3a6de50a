package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"wfreach/internal/api"
	"wfreach/internal/obs"
	"wfreach/internal/service"
	"wfreach/internal/spec"
	"wfreach/internal/wfxml"
)

// Options configures a Controller.
type Options struct {
	// ProbeInterval is how often peers are probed for liveness and map
	// version. Zero selects 2s.
	ProbeInterval time.Duration
	// HTTPTimeout bounds each unary peer call (map fetch, stats, spec,
	// release). Zero selects 10s. Tail streams and forwarded moves are
	// bounded by the request context instead.
	HTTPTimeout time.Duration
	// BatchSize caps how many tailed events a move applies per ingest
	// call. Zero selects 256.
	BatchSize int
	// Logf, when set, receives human-readable progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.HTTPTimeout <= 0 {
		o.HTTPTimeout = 10 * time.Second
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
}

// peerState is the prober's record of one other node.
type peerState struct {
	node       api.ClusterNode
	up         bool
	mapVersion int64
	lastErr    string
	lastSeen   time.Time // zero: never answered
}

// Controller runs one node's share of the cluster: it gates the HTTP
// surface by placement (service.ClusterHooks), serves the /v1/cluster
// control plane, probes the peers, and executes session moves by
// tailing the owner's WAL — the same replay a follower runs, driven to
// a sealed final sequence instead of forever. A moved session persists
// through the destination's own registry, so it takes arena snapshots
// like any other and a node restart re-adopts every session it hosts —
// moved or native — through the shared arena restore path: snapshotted
// labels are mapped zero-copy and only the WAL tail past the snapshot
// watermark is re-encoded.
//
// The controller deliberately talks raw HTTP + api types to its peers
// rather than the client SDK: the SDK's cluster client imports this
// package for placement, so the dependency must point one way.
type Controller struct {
	self  api.ClusterNode
	state *State
	reg   *service.Registry
	opts  Options
	hc    *http.Client

	// Move-phase and rejection instruments, re-registered against the
	// registry's obs families (idempotent — shared with the series the
	// service pre-creates so the scrape carries them from node start).
	moves      *obs.CounterVec
	rejections *obs.CounterVec

	mu     sync.Mutex
	peers  map[string]*peerState
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// moveMu serializes moves arriving at this node; concurrent moves
	// of different sessions would be fine, but one at a time keeps the
	// seal/override interleavings trivial to reason about.
	moveMu sync.Mutex
}

// New builds the controller for node self over the map and installs
// its hooks on the registry — from that point the registry's HTTP
// surface is placement-gated and the /v1/cluster routes answer. The
// prober is idle until Start.
func New(self string, m api.ClusterMap, reg *service.Registry, opts Options) (*Controller, error) {
	opts.fill()
	if err := ValidateMap(m); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	st, err := NewState(m)
	if err != nil {
		return nil, err
	}
	me, ok := m.Node(self)
	if !ok {
		return nil, fmt.Errorf("cluster: this node %q is not in the cluster map", self)
	}
	c := &Controller{
		self:  me,
		state: st,
		reg:   reg,
		opts:  opts,
		hc:    &http.Client{},
		peers: make(map[string]*peerState),

		moves:      reg.Obs().CounterVec("wf_cluster_moves_total", "Cluster session-move phase transitions.", "phase"),
		rejections: reg.Obs().CounterVec("wf_cluster_rejections_total", "Placement rejections served.", "code"),
	}
	for _, n := range m.Nodes {
		if n.Name != self {
			c.peers[n.Name] = &peerState{node: n}
		}
	}
	reg.SetClusterHooks(service.ClusterHooks{
		Route:   c.Route,
		Map:     c.Map,
		Health:  c.Health,
		Move:    c.Move,
		Release: c.Release,
		Forget:  c.state.DropOverride,
	})
	return c, nil
}

// Self returns this node's map entry.
func (c *Controller) Self() api.ClusterNode { return c.self }

// State returns the controller's live map state.
func (c *Controller) State() *State { return c.state }

func (c *Controller) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Start launches the peer prober in the background.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.probeLoop(ctx)
	}()
}

// Close stops the prober. The hooks stay installed; the node keeps
// routing with the map it has.
func (c *Controller) Close() {
	c.mu.Lock()
	cancel := c.cancel
	c.cancel = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	c.wg.Wait()
}

// Route is the placement gate (service.ClusterHooks.Route): nil when
// this node serves the session, a typed rejection naming the owner
// otherwise. Reads against a retained local copy of a moved session
// are served — stale, exactly like a follower's. Writes to a session
// moved here whose drain has not finished are rejected too: accepting
// one would interleave stray events with the sealed-but-undrained
// suffix and silently fork the copy from the releasing node's log.
func (c *Controller) Route(session string, write bool) error {
	owner := c.state.Place(session)
	if owner.Name == c.self.Name {
		if write {
			return c.undrained(session)
		}
		return nil
	}
	if _, ok := c.reg.Get(session); ok {
		if !write {
			return nil
		}
		c.rejections.With("read_only").Inc()
		return api.Errorf(api.CodeReadOnly, "session %q moved to node %s", session, owner.Name).
			WithDetail("%s", owner.URL)
	}
	c.rejections.With("wrong_node").Inc()
	return api.Errorf(api.CodeWrongNode, "session %q is owned by node %s", session, owner.Name).
		WithDetail("%s", owner.URL)
}

// undrained reports why a session the map places here cannot take
// writes yet: its move recorded a sealed final sequence the local copy
// has not applied through (the override gossips ahead of the drain).
// The rejection names this node so a routing client simply retries
// here with backoff; the prober's resume (or a re-POSTed move) closes
// the gap within a probe interval. nil once drained — including every
// session that never moved, where the single override lookup is the
// only cost.
func (c *Controller) undrained(session string) error {
	ov, ok := c.state.OverrideFor(session)
	if !ok || ov.From == "" || ov.From == c.self.Name || ov.FinalSeq <= 0 {
		return nil
	}
	if s, have := c.reg.Get(session); have && s.Vertices() >= ov.FinalSeq {
		return nil
	}
	c.rejections.With("read_only").Inc()
	return api.Errorf(api.CodeReadOnly, "session %q is still draining its move from node %s; retry shortly", session, ov.From).
		WithDetail("%s", c.self.URL)
}

// Map snapshots the node's cluster map.
func (c *Controller) Map() api.ClusterMap { return c.state.Map() }

// Health builds the node's cluster health: role and WAL sequences from
// the replication status, peers from the prober.
func (c *Controller) Health() api.ClusterHealth {
	rs := c.reg.ReplicationStatus()
	return api.ClusterHealth{
		Node:       c.self.Name,
		MapVersion: c.state.Version(),
		Role:       rs.Role,
		Sessions:   rs.Sessions,
		Peers:      c.peerView(),
		Metrics:    c.reg.MetricsSnapshot(),
	}
}

// peerView snapshots the prober's peer records, sorted by name.
func (c *Controller) peerView() []api.ClusterPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]api.ClusterPeer, 0, len(c.peers))
	for _, p := range c.peers {
		age := int64(-1)
		if !p.lastSeen.IsZero() {
			age = time.Since(p.lastSeen).Milliseconds()
		}
		out = append(out, api.ClusterPeer{
			Name: p.node.Name, URL: p.node.URL,
			Up: p.up, MapVersion: p.mapVersion, Error: p.lastErr, AgeMS: age,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// probeLoop polls every peer's map endpoint: liveness for the health
// report, and map merging so overrides installed by moves elsewhere
// reach this node without waiting for a misroute.
func (c *Controller) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		c.probeOnce(ctx)
		c.resumeIncomplete(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// resumeIncomplete finishes moves to this node that were interrupted
// after the owner's release — a crashed target, a lost caller: any
// session the map places here whose copy has not drained to the
// override's sealed final sequence is completed through the same path
// a re-POSTed move takes, so the cluster self-heals instead of
// waiting for an operator retry. Skipped entirely while a move is in
// flight (TryLock): the running move either is the drain in question
// or will leave a drained copy behind.
func (c *Controller) resumeIncomplete(ctx context.Context) {
	if !c.moveMu.TryLock() {
		return
	}
	defer c.moveMu.Unlock()
	for sess, ov := range c.state.Map().Overrides {
		if ov.Deleted || ov.Node != c.self.Name || ov.From == "" || ov.From == c.self.Name || ov.FinalSeq <= 0 {
			continue
		}
		if s, ok := c.reg.Get(sess); ok && s.Vertices() >= ov.FinalSeq {
			continue
		}
		c.logf("cluster: session %q has an interrupted move; resuming its drain", sess)
		if _, err := c.completeLocal(ctx, sess); err != nil {
			c.logf("cluster: resume move of %q: %v", sess, err)
		}
	}
}

func (c *Controller) probeOnce(ctx context.Context) {
	c.mu.Lock()
	peers := make([]*peerState, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	for _, p := range peers {
		var m api.ClusterMap
		err := c.getJSON(ctx, p.node.URL, "/v1/cluster/map", &m)
		c.mu.Lock()
		if err != nil {
			p.up, p.lastErr = false, err.Error()
			c.mu.Unlock()
			continue
		}
		p.up, p.lastErr, p.mapVersion, p.lastSeen = true, "", m.Version, time.Now()
		c.mu.Unlock()
		if changed, err := c.state.Merge(m); err != nil {
			c.logf("cluster: merge map from %s: %v", p.node.Name, err)
		} else if changed {
			c.logf("cluster: adopted map v%d from %s", c.state.Version(), p.node.Name)
		}
	}
}

// Move moves req.Session to req.Target. POSTed to any node: the target
// executes the receive protocol, every other node forwards. Moving a
// session to the node that already owns it is the identity move and
// succeeds immediately.
func (c *Controller) Move(ctx context.Context, req api.MoveRequest) (api.MoveResponse, error) {
	if req.Session == "" {
		return api.MoveResponse{}, api.Errorf(api.CodeBadRequest, "move wants a session name")
	}
	target, ok := c.state.Map().Node(req.Target)
	if !ok {
		return api.MoveResponse{}, api.Errorf(api.CodeBadRequest, "unknown target node %q", req.Target)
	}
	if target.Name != c.self.Name {
		var resp api.MoveResponse
		if err := c.postJSON(ctx, target.URL, "/v1/cluster/move", req, &resp, false); err != nil {
			return api.MoveResponse{}, err
		}
		if _, merr := c.state.Merge(resp.Map); merr != nil {
			c.logf("cluster: merge map after forwarded move: %v", merr)
		}
		return resp, nil
	}
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	return c.receiveMove(ctx, req.Session)
}

// receiveMove runs the target side of a move of session to this node:
//
//  1. adopt — rebuild the session locally from the owner's spec and
//     labeling config (or resume a copy left by an earlier attempt,
//     identity-checked);
//  2. catch up — tail the owner's WAL wait=false until a round ships
//     nothing new;
//  3. release — ask the owner to seal the session and install the
//     override; the owner answers with the final sealed sequence;
//  4. drain — tail until the local copy has applied through it;
//  5. adopt the owner's map (which now carries the override) and serve.
//
// Ordering is what makes the move lossless: the seal (under the
// owner's ingest lock) fixes the final sequence after which no write
// can land on the owner, and this node only starts accepting writes —
// step 5 flips Route — once it has applied everything up to it.
func (c *Controller) receiveMove(ctx context.Context, session string) (api.MoveResponse, error) {
	owner := c.state.Place(session)
	if owner.Name == c.self.Name {
		return c.completeLocal(ctx, session)
	}
	c.moves.With("started").Inc()
	c.logf("cluster: moving session %q from %s to %s", session, owner.Name, c.self.Name)

	var pst api.SessionStats
	if err := c.getJSON(ctx, owner.URL, "/v1/sessions/"+url.PathEscape(session), &pst); err != nil {
		return api.MoveResponse{}, fmt.Errorf("cluster: fetch session %q from %s: %w", session, owner.Name, err)
	}
	s, err := c.adopt(ctx, owner, pst)
	if err != nil {
		return api.MoveResponse{}, err
	}

	// Catch up while the owner is still ingesting; each round drains the
	// currently committed history. When a round ships nothing we are as
	// close as tailing gets — time to seal.
	for {
		n, err := c.tailRound(ctx, s, owner.URL, session)
		if err != nil {
			return api.MoveResponse{}, fmt.Errorf("cluster: catch up %q from %s: %w", session, owner.Name, err)
		}
		if n == 0 {
			break
		}
	}

	var rel api.ReleaseResponse
	relReq := api.ReleaseRequest{Session: session, Node: c.self.Name, URL: c.self.URL}
	if err := c.postJSON(ctx, owner.URL, "/v1/cluster/release", relReq, &rel, true); err != nil {
		return api.MoveResponse{}, fmt.Errorf("cluster: release %q on %s: %w", session, owner.Name, err)
	}

	if err := c.drain(ctx, s, owner.URL, session, rel.FinalSeq); err != nil {
		return api.MoveResponse{}, err
	}
	if err := c.verifyMoveChain(s, session, rel.FinalSeq, rel.ChainHead); err != nil {
		return api.MoveResponse{}, err
	}

	// Everything is here; adopting the owner's map (override included)
	// flips Route and this node starts serving the session.
	if _, err := c.state.Merge(rel.Map); err != nil {
		return api.MoveResponse{}, fmt.Errorf("cluster: adopt released map: %w", err)
	}
	c.moves.With("completed").Inc()
	c.logf("cluster: session %q now served here (%d events, map v%d)", session, s.Vertices(), c.state.Version())
	return api.MoveResponse{Session: session, From: owner.Name, To: c.self.Name,
		Events: s.Vertices(), Map: c.state.Map()}, nil
}

// completeLocal answers a move whose target the map already places
// here: a re-POSTed move, a hash-placed session "moved" home — or a
// move interrupted between the owner's release and the end of the
// drain. The override installed at release spreads by gossip before
// the drain finishes, so a retried move can land in this branch while
// the local copy is still behind the sealed final sequence; the
// override records the releasing node and that sequence exactly so
// completion is checkable here. A copy at or past FinalSeq is done;
// anything else resumes the drain instead of reporting a success that
// would silently drop the events between the local horizon and the
// seal.
func (c *Controller) completeLocal(ctx context.Context, session string) (api.MoveResponse, error) {
	ov, moved := c.state.OverrideFor(session)
	resumable := moved && ov.From != "" && ov.From != c.self.Name && ov.FinalSeq > 0
	s, have := c.reg.Get(session)
	if have && (!resumable || s.Vertices() >= ov.FinalSeq) {
		return api.MoveResponse{Session: session, From: c.self.Name, To: c.self.Name,
			Events: s.Vertices(), Map: c.state.Map()}, nil
	}
	if !resumable {
		return api.MoveResponse{}, api.Errorf(api.CodeSessionNotFound, "no session %q anywhere in the cluster", session)
	}
	src, ok := c.state.Map().Node(ov.From)
	if !ok {
		return api.MoveResponse{}, api.Errorf(api.CodeUnknown,
			"session %q was released by node %q, which is not in the map", session, ov.From)
	}
	var localSeq int64
	if have {
		localSeq = s.Vertices()
	}
	c.moves.With("resumed").Inc()
	c.logf("cluster: resuming interrupted move of %q from %s (have %d, need %d)",
		session, src.Name, localSeq, ov.FinalSeq)
	if !have {
		var pst api.SessionStats
		if err := c.getJSON(ctx, src.URL, "/v1/sessions/"+url.PathEscape(session), &pst); err != nil {
			return api.MoveResponse{}, fmt.Errorf("cluster: fetch session %q from %s: %w", session, src.Name, err)
		}
		var err error
		if s, err = c.adopt(ctx, src, pst); err != nil {
			return api.MoveResponse{}, err
		}
	} else {
		// The behind copy may carry a seal from an interrupted earlier
		// hop; the map says this node owns the session, so reopen it.
		s.Unseal()
	}
	if err := c.drain(ctx, s, src.URL, session, ov.FinalSeq); err != nil {
		return api.MoveResponse{}, err
	}
	if err := c.verifyMoveChain(s, session, ov.FinalSeq, ov.ChainHead); err != nil {
		return api.MoveResponse{}, err
	}
	c.moves.With("completed").Inc()
	c.logf("cluster: session %q drain resumed and completed (%d events)", session, s.Vertices())
	return api.MoveResponse{Session: session, From: ov.From, To: c.self.Name,
		Events: s.Vertices(), Map: c.state.Map()}, nil
}

// drain tails the source until the local copy has applied through the
// sealed final sequence. The last batch's commit may still be in
// flight on the source (the tailer only ships durable records), so an
// empty round while still behind just retries.
func (c *Controller) drain(ctx context.Context, s *service.Session, srcURL, session string, finalSeq int64) error {
	for s.Vertices() < finalSeq {
		n, err := c.tailRound(ctx, s, srcURL, session)
		if err != nil {
			return fmt.Errorf("cluster: drain %q to seq %d: %w", session, finalSeq, err)
		}
		if n == 0 && s.Vertices() < finalSeq {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

// verifyMoveChain re-verifies the drained copy's hash chain against
// the head the source sealed at FinalSeq, before the override flips
// routing here. The drained frames are byte-identical to the source's
// WAL records, so a clean move reproduces the sealed head exactly; a
// mismatch means the history this node applied is not the history
// that was sealed (the source's log — or the stream — was rewritten),
// and the move fails instead of serving it. Verification is skipped
// when either side has no chain: the source carried no head
// (memory-only), or the local copy's chain state does not land on
// FinalSeq (memory target, or a resumed drain over a local prefix
// this process cannot re-hash).
func (c *Controller) verifyMoveChain(s *service.Session, session string, finalSeq int64, sealedHead string) error {
	if sealedHead == "" {
		return nil
	}
	seq, head, ok := s.ChainState()
	if !ok || seq != finalSeq {
		c.logf("cluster: move of %q: no comparable local chain at seq %d; chain verification skipped", session, finalSeq)
		return nil
	}
	if have := head.String(); have != sealedHead {
		return api.Errorf(api.CodeUnknown,
			"integrity: move of %q: chain head %s at sealed seq %d does not match the head %s the source sealed — drained history was tampered with; refusing to serve it",
			session, have, finalSeq, sealedHead)
	}
	c.logf("cluster: move of %q: chain verified at seq %d (%s)", session, finalSeq, sealedHead)
	return nil
}

// adopt rebuilds (or resumes) the local copy of the owner's session,
// mirroring what a replica does: fetch the spec, compile, copy the
// labeling configuration and the identity.
func (c *Controller) adopt(ctx context.Context, owner api.ClusterNode, pst api.SessionStats) (*service.Session, error) {
	if s, ok := c.reg.Get(pst.Name); ok {
		if lid := s.ID(); lid != "" && pst.ID != "" && lid != pst.ID {
			return nil, api.Errorf(api.CodeSessionExists,
				"local copy of %q has identity %s, the owner's is %s; delete the local copy first", pst.Name, lid, pst.ID)
		}
		// A retained copy was sealed when the session moved away; this
		// node is taking it back, so reopen ingest for the tailer's
		// replay. External writes stay rejected by Route until the
		// drain completes and the map flips here.
		s.Unseal()
		return s, nil
	}
	raw, err := c.getBytes(ctx, owner.URL, "/v1/sessions/"+url.PathEscape(pst.Name)+"/spec")
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch spec of %q: %w", pst.Name, err)
	}
	sp, err := wfxml.DecodeSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cluster: decode spec of %q: %w", pst.Name, err)
	}
	g, err := spec.Compile(sp)
	if err != nil {
		return nil, fmt.Errorf("cluster: compile spec of %q: %w", pst.Name, err)
	}
	cfg, err := service.ParseConfig(pst.Skeleton, pst.Mode)
	if err != nil {
		return nil, fmt.Errorf("cluster: labeling config of %q: %w", pst.Name, err)
	}
	// The copy keeps the owner session's identity: a move transfers the
	// session, it does not mint a new one.
	cfg.ID = pst.ID
	return c.reg.Create(pst.Name, g, cfg)
}

// tailRound drains the owner's currently committed WAL history for the
// session into the local copy (wait=false: the stream ends at the
// committed horizon) and returns how many events it applied. The local
// vertex count is the resume cursor — every applied event labels
// exactly one vertex, so it equals the last applied owner sequence.
func (c *Controller) tailRound(ctx context.Context, s *service.Session, ownerURL, session string) (int64, error) {
	from := s.Vertices() + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/sessions/%s/wal?from=%d&wait=false", ownerURL, url.PathEscape(session), from), nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeAPIError(resp)
	}

	n, err := s.ApplyTail(api.NewTailReader(resp.Body), from, c.opts.BatchSize, nil)
	if err != nil {
		return n, fmt.Errorf("tail of %q from seq %d: %w", session, from, err)
	}
	return n, nil
}

// Release is the owner side of a move (service.ClusterHooks.Release):
// seal the session — fixing the last sequence any writer got in — and
// install the override so this node's own map names the new owner.
// Re-POSTing is safe: sealing twice is a no-op and the override just
// re-installs.
func (c *Controller) Release(_ context.Context, req api.ReleaseRequest) (api.ReleaseResponse, error) {
	if req.Session == "" || req.Node == "" || req.URL == "" {
		return api.ReleaseResponse{}, api.Errorf(api.CodeBadRequest, "release wants session, node and url")
	}
	s, ok := c.reg.Get(req.Session)
	if !ok {
		return api.ReleaseResponse{}, api.Errorf(api.CodeSessionNotFound, "no session %q", req.Session)
	}
	// The override records this node and the sealed sequence so a move
	// interrupted after this point can verify and resume its drain.
	final := s.Seal(req.URL)
	// The seal ended ingest, so the chain head is final too: it commits
	// to every byte the new owner must have applied at FinalSeq. Carried
	// in the override, it survives an interrupted move by gossip.
	var head string
	if seq, h, ok := s.ChainState(); ok && seq == final {
		head = h.String()
	}
	if _, err := c.state.Override(req.Session, req.Node, c.self.Name, final, head); err != nil {
		return api.ReleaseResponse{}, api.Errorf(api.CodeBadRequest, "%v", err)
	}
	c.moves.With("released").Inc()
	c.logf("cluster: released session %q to %s at seq %d (map v%d)", req.Session, req.Node, final, c.state.Version())
	return api.ReleaseResponse{FinalSeq: final, ChainHead: head, Map: c.state.Map()}, nil
}

// getJSON GETs base+path with the unary timeout and decodes the JSON
// response into out.
func (c *Controller) getJSON(ctx context.Context, base, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, c.opts.HTTPTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getBytes GETs base+path with the unary timeout and returns the body.
func (c *Controller) getBytes(ctx context.Context, base, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.HTTPTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// postJSON POSTs body as JSON to base+path and decodes the response
// into out. unary applies the unary timeout; a forwarded move runs on
// the caller's context alone (it can legitimately take as long as the
// catch-up does).
func (c *Controller) postJSON(ctx context.Context, base, path string, body, out any, unary bool) error {
	if unary {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.HTTPTimeout)
		defer cancel()
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", api.ContentTypeJSON)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError rebuilds the structured error from a non-2xx peer
// response.
func decodeAPIError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var er api.ErrorResponse
	if json.Unmarshal(b, &er) == nil && er.Err != nil && er.Err.Code != "" {
		er.Err.HTTPStatus = resp.StatusCode
		return er.Err
	}
	return api.Errorf(api.CodeUnknown, "unexpected status %s", resp.Status)
}
