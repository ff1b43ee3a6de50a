// Package cluster shards labeling sessions across multiple primary
// servers. The paper's labeling scheme is per-execution by
// construction — sessions never share label state — so the session is
// the natural shard key: a cluster is simply N independent primaries
// plus an agreement about which one owns which session.
//
// That agreement is the cluster map (api.ClusterMap): a static node
// set hashed onto a consistent-hash ring, plus explicit per-session
// overrides for sessions that were moved. Placement (api.Placement) is
// a pure function of the map and part of the wire contract, so every
// node and every SDK client holding the same map routes identically,
// and a stale map costs exactly one redirect (the rejection names the
// owner).
//
// This package holds map-file loading (config.go) and the Controller:
// the placement gate, the /v1/cluster control plane and the session
// mover. Every call it makes to a peer goes through the SDK (package
// client), and the mover copies a session with internal/replica's Copy,
// the one a follower uses: the target adopts the session from the
// owner, tails its WAL until caught up, and asks the owner to seal the
// session and install a pending override naming the sealed final
// sequence and the chain head there. Like every copy, the target tees
// every frame it drains to its own log; the move is done only
// when the head of that log at the final sequence is the sealed head.
// Then the target replaces the pending override with a plain one naming
// itself, and takes writes. The override is the record of the move:
// while it is pending the target refuses writes and its prober resumes
// the move, and a first POST, a re-POST and a resume all run one path.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/obs"
	"wfreach/internal/replica"
	"wfreach/internal/service"
)

const (
	// probeInterval is how often peers are probed for liveness and map
	// version.
	probeInterval = 2 * time.Second
	// peerTimeout bounds each unary peer call: map probe, session stats,
	// spec, release. WAL tails and forwarded moves run on the caller's
	// context alone — they last as long as the catch-up does.
	peerTimeout = 10 * time.Second
)

// peerState is one other node: its SDK client and the prober's record.
type peerState struct {
	node       api.ClusterNode
	c          *client.Client
	up         bool
	mapVersion int64
	lastErr    string
	lastSeen   time.Time // zero: never answered
}

// Controller runs one node's share of the cluster: it gates the HTTP
// surface by placement (service.Registry.SetRoute), serves the
// /v1/cluster control plane, probes the peers, and executes session
// moves by copying the session from its owner (replica.Copy) — the
// same replay a follower runs, driven to a sealed final sequence
// instead of forever. A moved session persists through the destination's own
// registry, so it takes arena snapshots like any other and a node
// restart re-adopts every session it hosts — moved or native — through
// the shared arena restore path: snapshotted labels are mapped
// zero-copy and only the WAL tail past the snapshot watermark is
// re-encoded.
type Controller struct {
	self  api.ClusterNode
	state *api.Placement
	reg   *service.Registry
	log   *slog.Logger

	// Move-phase and rejection instruments, re-registered against the
	// registry's obs families (idempotent — shared with the series the
	// service pre-creates so the scrape carries them from node start).
	moves      *obs.CounterVec
	rejections *obs.CounterVec

	mu     sync.Mutex // guards the peerState records and cancel
	peers  map[string]*peerState
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// moveMu serializes moves arriving at this node; concurrent moves
	// of different sessions would be fine, but one at a time keeps the
	// seal/override interleavings trivial to reason about.
	moveMu sync.Mutex
}

// New builds the controller for node self over the map and installs
// its gate and hooks on the registry — from that point the registry's
// HTTP surface is placement-gated and the /v1/cluster routes answer.
// The prober is idle until Start. A moved session is verified against
// the copy's own write-ahead log. Progress records go to log; nil
// discards them.
func New(self string, m api.ClusterMap, reg *service.Registry, log *slog.Logger) (*Controller, error) {
	st, err := api.NewPlacement(m)
	if err != nil {
		return nil, err
	}
	me, ok := m.Node(self)
	if !ok {
		return nil, fmt.Errorf("cluster: this node %q is not in the cluster map", self)
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	c := &Controller{
		self:  me,
		state: st,
		reg:   reg,
		log:   log,
		peers: make(map[string]*peerState),

		moves:      reg.Obs().CounterVec("wf_cluster_moves_total", "Cluster session-move phase transitions.", "phase"),
		rejections: reg.Obs().CounterVec("wf_cluster_rejections_total", "Placement rejections served.", "code"),
	}
	for _, n := range m.Nodes {
		if n.Name != self {
			// No overall timeout (unary calls carry peerTimeout, tails and
			// forwarded moves the caller's context), no retries, and no
			// redirect: a peer's answer is the answer.
			c.peers[n.Name] = &peerState{node: n, c: client.New(n.URL,
				client.WithHTTPClient(http.DefaultClient), client.WithRetry(0, 0), client.WithoutRedirect())}
		}
	}
	reg.SetRoute(c.Route)
	reg.SetClusterHooks(service.ClusterHooks{
		Map:     c.Map,
		Health:  c.Health,
		Move:    c.Move,
		Release: c.Release,
		Forget:  c.state.DropOverride,
	})
	return c, nil
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

// Route is the placement gate (service.Registry.SetRoute): nil when
// this node serves the session, a typed rejection naming the owner
// otherwise. Reads against a retained local copy of a moved session
// are served — stale, exactly like a follower's. Writes to a session
// whose move here is pending are refused too, naming this node so a
// routing client retries here with backoff: until the copy is verified
// at the sealed head, a write would extend a history nobody checked.
func (c *Controller) Route(session string, write bool) error {
	owner := c.state.Place(session)
	if owner.Name == c.self.Name {
		ov, pending := c.pending(session)
		if !write || !pending {
			return nil
		}
		c.rejections.With("read_only").Inc()
		return api.Errorf(api.CodeReadOnly, "session %q is still verifying its move from node %s; retry shortly", session, ov.From).
			WithDetail("%s", c.self.URL)
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

// pending returns the session's override when it records a move to
// this node that has not been verified yet: an override to this node
// whose From names another node. A verified move replaces it with a
// plain override, so every session that never moved, or whose move
// completed, costs the single lookup.
func (c *Controller) pending(session string) (api.ClusterOverride, bool) {
	ov, ok := c.state.OverrideFor(session)
	return ov, ok && ov.Node == c.self.Name && ov.From != "" && ov.From != c.self.Name
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
	ticker := time.NewTicker(probeInterval)
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
// after the owner's release — a crashed target, a lost caller, an
// override that arrived by gossip: every pending override is resumed
// through receive, the path a re-POSTed move takes, so the cluster
// self-heals instead of waiting for an operator retry. Skipped entirely
// while a move is in flight (TryLock): the running move either is the
// one in question or leaves it pending for the next round.
func (c *Controller) resumeIncomplete(ctx context.Context) {
	if !c.moveMu.TryLock() {
		return
	}
	defer c.moveMu.Unlock()
	for sess := range c.state.Map().Overrides {
		if _, pending := c.pending(sess); !pending {
			continue
		}
		if _, err := c.receive(ctx, sess); err != nil {
			c.log.Warn("cluster: resume move failed", "session", sess, "err", err)
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
		pctx, cancel := context.WithTimeout(ctx, peerTimeout)
		m, err := p.c.ClusterMap(pctx)
		cancel()
		c.mu.Lock()
		if err != nil {
			p.up, p.lastErr = false, err.Error()
			c.mu.Unlock()
			continue
		}
		p.up, p.lastErr, p.mapVersion, p.lastSeen = true, "", m.Version, time.Now()
		c.mu.Unlock()
		if changed, err := c.state.Merge(m); err != nil {
			c.log.Warn("cluster: merge map failed", "peer", p.node.Name, "err", err)
		} else if changed {
			c.log.Info("cluster: adopted map", "map_version", c.state.Version(), "peer", p.node.Name)
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
		resp, err := c.peers[target.Name].c.MoveSession(ctx, req.Session, req.Target)
		if err != nil {
			return api.MoveResponse{}, err
		}
		if _, merr := c.state.Merge(resp.Map); merr != nil {
			c.log.Warn("cluster: merge map after forwarded move failed", "err", merr)
		}
		return resp, nil
	}
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	return c.receive(ctx, req.Session)
}

// receive runs the target side of a move of session to this node. It
// is the only way a moved session becomes writable here:
//
//  1. release — unless a move here is already pending: adopt the
//     session from its owner and catch up, then have the owner seal it
//     and install the pending override (release);
//  2. drain — tail the releasing node's log to the sealed final
//     sequence and verify the copy there (drain);
//  3. complete — replace the pending override with a plain one naming
//     this node, at a higher version, which gossips like any other.
//
// Ordering is what makes the move lossless: the seal (under the
// owner's ingest lock) fixes the final sequence after which no write
// can land on the owner, and this node takes no write while the
// override is pending — so what it verifies at the final sequence is
// everything the owner acknowledged. A re-POSTed move and the prober's
// resume of a pending override start at step 2; a session this node
// already serves with no move pending answers at once.
func (c *Controller) receive(ctx context.Context, session string) (api.MoveResponse, error) {
	ov, pending := c.pending(session)
	var cp *replica.Copy
	var err error
	if pending {
		c.moves.With("resumed").Inc()
		c.log.Info("cluster: resuming move", "session", session, "from", ov.From, "seq", ov.FinalSeq)
		src, ok := c.peers[ov.From]
		if !ok {
			return api.MoveResponse{}, api.Errorf(api.CodeUnknown,
				"session %q was released by node %q, which is not in the map", session, ov.From)
		}
		cp, err = c.copyFrom(ctx, src, session)
	} else if owner := c.state.Place(session); owner.Name == c.self.Name {
		s, ok := c.reg.Get(session)
		if !ok {
			return api.MoveResponse{}, api.Errorf(api.CodeSessionNotFound, "no session %q anywhere in the cluster", session)
		}
		return api.MoveResponse{Session: session, From: c.self.Name, To: c.self.Name,
			Events: s.Vertices(), Map: c.state.Map()}, nil
	} else {
		cp, ov, err = c.release(ctx, session, owner)
	}
	if err != nil {
		return api.MoveResponse{}, err
	}
	if err := c.drain(ctx, cp, ov); err != nil {
		return api.MoveResponse{}, err
	}
	if _, err := c.state.Override(session, c.self.Name, "", 0, ""); err != nil {
		return api.MoveResponse{}, err
	}
	c.moves.With("completed").Inc()
	n := cp.Session().Vertices()
	c.log.Info("cluster: session now served here", "session", session, "events", n, "map_version", c.state.Version())
	return api.MoveResponse{Session: session, From: ov.From, To: c.self.Name,
		Events: n, Map: c.state.Map()}, nil
}

// release is step 1 of a move: adopt the owner's session, tail its WAL
// while it keeps ingesting until a round ships nothing new (each round
// drains the currently committed history; an empty one is as close as
// tailing gets), then ask the owner to seal the session and adopt the
// owner's map, which from then on carries the pending override this
// returns: the owner, its sealed final sequence and the chain head
// there.
func (c *Controller) release(ctx context.Context, session string, owner api.ClusterNode) (*replica.Copy, api.ClusterOverride, error) {
	c.moves.With("started").Inc()
	c.log.Info("cluster: moving session", "session", session, "from", owner.Name, "to", c.self.Name)
	src := c.peers[owner.Name]
	cp, err := c.copyFrom(ctx, src, session)
	if err != nil {
		return nil, api.ClusterOverride{}, err
	}
	for {
		n, err := cp.Pull(ctx, false, nil)
		if err != nil {
			return nil, api.ClusterOverride{}, fmt.Errorf("cluster: catch up %q from %s: %w", session, owner.Name, err)
		}
		if n == 0 {
			break
		}
	}
	rctx, cancel := context.WithTimeout(ctx, peerTimeout)
	rel, err := src.c.ReleaseSession(rctx, session, c.self)
	cancel()
	if err != nil {
		return nil, api.ClusterOverride{}, fmt.Errorf("cluster: release %q on %s: %w", session, owner.Name, err)
	}
	if _, err := c.state.Merge(rel.Map); err != nil {
		return nil, api.ClusterOverride{}, fmt.Errorf("cluster: adopt released map: %w", err)
	}
	return cp, api.ClusterOverride{Node: c.self.Name, From: owner.Name, FinalSeq: rel.FinalSeq, ChainHead: rel.ChainHead}, nil
}

// copyFrom adopts the source's session into this node's registry
// (replica.Adopt): a fresh copy built from the source's spec and
// configuration, or the identity-checked copy an earlier move left
// here — a retained copy of a session this node once released, or the
// prefix of an interrupted drain.
func (c *Controller) copyFrom(ctx context.Context, src *peerState, session string) (*replica.Copy, error) {
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	st, err := src.c.Session(ctx, session)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch session %q from %s: %w", session, src.node.Name, err)
	}
	cp, err := replica.Adopt(ctx, c.reg, src.c, st)
	if err != nil {
		return nil, fmt.Errorf("cluster: adopt %q from %s: %w", session, src.node.Name, err)
	}
	return cp, nil
}

// drain pulls the releasing node's log into the copy up to the sealed
// final sequence, then proves the copy holds the history that was
// sealed: every drained frame was teed verbatim to this node's own log,
// so the head of that log at FinalSeq (Session.ChainAt) is the sealed
// head exactly when the copy applied the bytes the source logged. A
// mismatch means the source's log — or the stream — was rewritten: the
// copy is deleted, so nothing serves it, and the move fails; the
// override stays pending, so writes stay refused and a retry drains
// afresh, while the owner keeps its sealed copy. Any other error
// (transport, a cancelled context) keeps the honest prefix so the drain
// can resume. The last batch's commit may still be in flight on the
// source (the tailer only ships durable records), so an empty round
// while still behind just retries.
func (c *Controller) drain(ctx context.Context, cp *replica.Copy, ov api.ClusterOverride) error {
	s := cp.Session()
	for s.Vertices() < ov.FinalSeq {
		n, err := cp.Pull(ctx, false, nil)
		if err != nil {
			return fmt.Errorf("cluster: drain %q to seq %d: %w", s.Name(), ov.FinalSeq, err)
		}
		if n == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	head, err := s.ChainAt(ov.FinalSeq)
	if err != nil {
		return fmt.Errorf("cluster: verify move of %q at seq %d: %w", s.Name(), ov.FinalSeq, err)
	}
	if head.String() != ov.ChainHead {
		// Delete does not run the cluster's Forget hook: the override
		// stays pending.
		c.reg.Delete(s.Name())
		c.moves.With("rejected").Inc()
		return api.Errorf(api.CodeUnknown,
			"integrity: move of %q: chain head %s at seq %d does not match the head %s the source sealed — drained history was tampered with; refusing to serve it",
			s.Name(), head, ov.FinalSeq, ov.ChainHead)
	}
	c.log.Info("cluster: move chain verified", "session", s.Name(), "seq", ov.FinalSeq, "head", ov.ChainHead)
	return nil
}

// Release is the owner side of a move (service.ClusterHooks.Release):
// seal the session — fixing the last sequence any writer got in — and
// install the pending override naming the new owner, this node, the
// sealed sequence and the chain head there, so a move interrupted after
// this point can resume and verify from the map alone. A session with
// no chain head at its sealed sequence could never be verified: it is
// refused with CodeNotDurable and left unsealed. Re-POSTing is safe:
// sealing twice is a no-op and the override just re-installs.
func (c *Controller) Release(_ context.Context, req api.ReleaseRequest) (api.ReleaseResponse, error) {
	if req.Session == "" || req.Node == "" || req.URL == "" {
		return api.ReleaseResponse{}, api.Errorf(api.CodeBadRequest, "release wants session, node and url")
	}
	s, ok := c.reg.Get(req.Session)
	if !ok {
		return api.ReleaseResponse{}, api.Errorf(api.CodeSessionNotFound, "no session %q", req.Session)
	}
	final := s.Seal(req.URL)
	// The seal ended ingest, so the chain head is final too: it commits
	// to every byte the new owner must have applied at FinalSeq.
	seq, head, ok := s.ChainState()
	if !ok || seq != final {
		s.Unseal()
		return api.ReleaseResponse{}, api.Errorf(api.CodeNotDurable,
			"session %q has no hash chain at its final sequence %d: a move of it could not be verified", req.Session, final)
	}
	if _, err := c.state.Override(req.Session, req.Node, c.self.Name, final, head.String()); err != nil {
		return api.ReleaseResponse{}, api.Errorf(api.CodeBadRequest, "%v", err)
	}
	c.moves.With("released").Inc()
	c.log.Info("cluster: released session", "session", req.Session, "to", req.Node, "seq", final, "map_version", c.state.Version())
	return api.ReleaseResponse{FinalSeq: final, ChainHead: head.String(), Map: c.state.Map()}, nil
}
