package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"wfreach/internal/api"
)

// Cluster wire types, re-exported from the contract package.
type (
	// ClusterMap is the versioned session-placement map.
	ClusterMap = api.ClusterMap
	// ClusterNode is one node entry of the map.
	ClusterNode = api.ClusterNode
	// ClusterHealth is one node's cluster health report.
	ClusterHealth = api.ClusterHealth
	// MoveResponse reports a completed session move.
	MoveResponse = api.MoveResponse
	// ReleaseResponse acknowledges the owner side of a move.
	ReleaseResponse = api.ReleaseResponse
)

// Cluster error codes, re-exported verbatim.
const (
	// CodeWrongNode is a session request sent to a node that does not
	// own the session; the detail names the owner.
	CodeWrongNode = api.CodeWrongNode
	// CodeNotClustered is a cluster call on a non-clustered server.
	CodeNotClustered = api.CodeNotClustered
)

// OwnerFromError extracts the owning node's base URL from a
// wrong_node rejection; the Cluster client chases these
// automatically.
func OwnerFromError(err error) (string, bool) { return api.OwnerFromError(err) }

// ClusterMap fetches the node's cluster placement map.
func (c *Client) ClusterMap(ctx context.Context) (ClusterMap, error) {
	var m ClusterMap
	err := c.do(ctx, http.MethodGet, "/cluster/map", nil, &m, true)
	return m, err
}

// ClusterHealth fetches the node's cluster health: role, map version,
// per-session WAL sequences, and its prober's view of the peers.
func (c *Client) ClusterHealth(ctx context.Context) (ClusterHealth, error) {
	var h ClusterHealth
	err := c.do(ctx, http.MethodGet, "/cluster/health", nil, &h, true)
	return h, err
}

// MoveSession asks the cluster to move the session to the target
// node. Any node accepts the request (non-targets forward it); the
// call returns once the target has caught up, taken the handoff,
// verified the drained history against the sealed chain head, and
// started serving. Moving a session to its current owner succeeds
// immediately. The call is idempotent but not retried automatically;
// a move of a large session can legitimately outlast short HTTP
// timeouts, so size the client's timeout accordingly.
func (c *Client) MoveSession(ctx context.Context, session, target string) (MoveResponse, error) {
	var resp MoveResponse
	err := c.do(ctx, http.MethodPost, "/cluster/move",
		api.MoveRequest{Session: session, Target: target}, &resp, false)
	return resp, err
}

// ReleaseSession is the owner-side step of a move, sent by the target
// once it has caught up: the owner seals the session, installs the
// override naming to, and answers with the sealed final sequence and
// chain head the target drains to and verifies against. Operators move
// sessions with MoveSession; this call is the node-to-node half.
func (c *Client) ReleaseSession(ctx context.Context, session string, to ClusterNode) (ReleaseResponse, error) {
	var resp ReleaseResponse
	err := c.do(ctx, http.MethodPost, "/cluster/release",
		api.ReleaseRequest{Session: session, Node: to.Name, URL: to.URL}, &resp, false)
	return resp, err
}

// clusterRouteAttempts bounds how many times one logical call chases
// routing rejections before giving up. Mid-move, a session's old
// owner answers read_only(new owner) while the new owner still
// answers wrong_node(old owner) until its drain completes; the
// bounded, jittered retry loop rides out that window (hundreds of
// milliseconds for typical sessions) without spinning.
const clusterRouteAttempts = 20

// clusterNode is one node's client, with the URL it is currently
// reached at — the map URL, or the promoted follower's after a
// failover.
type clusterNode struct {
	entry  api.ClusterNode
	active string
	c      *Client
}

// Cluster is the smart-routing client of a session-partitioned
// cluster: it wraps one Client per node and routes every call by
// session through the cluster map — the same consistent-hash
// placement (plus per-session move overrides) the servers use, so a
// current map routes every request to its owner in one hop.
//
// Self-healing, in order of escalation:
//   - a wrong_node/read_only rejection means the map is stale; the
//     rejection names the owner, whose map is fetched, merged, and
//     the call retried — rejected writes were not applied, so the
//     retry is safe;
//   - a node that stops answering fails over to its configured
//     follower once the follower reports itself promoted to primary
//     (promotion itself stays an operator action);
//   - map versions learned from move responses are merged in, so a
//     mover's client routes to the new owner immediately.
//
// A Cluster is safe for concurrent use.
type Cluster struct {
	opts  []Option
	state *api.Placement

	mu    sync.Mutex
	nodes map[string]*clusterNode
}

// NewCluster builds a routing client over the map (typically loaded
// from the same -cluster config file the servers use). The options
// configure every per-node Client; the follower write redirect is
// handled by the Cluster itself, so per-node clients run with it
// disabled.
func NewCluster(m ClusterMap, opts ...Option) (*Cluster, error) {
	st, err := api.NewPlacement(m)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		opts:  append(append([]Option(nil), opts...), WithoutWriteRedirect()),
		state: st,
		nodes: make(map[string]*clusterNode, len(m.Nodes)),
	}
	for _, n := range m.Nodes {
		active := strings.TrimRight(n.URL, "/")
		cl.nodes[n.Name] = &clusterNode{entry: n, active: active, c: New(active, cl.opts...)}
	}
	return cl, nil
}

// Map snapshots the client's current view of the cluster map.
func (cl *Cluster) Map() ClusterMap { return cl.state.Map() }

// Owner returns the name of the node the client would route the
// session to.
func (cl *Cluster) Owner(session string) string { return cl.state.Place(session).Name }

// NodeNames returns the cluster's node names, sorted.
func (cl *Cluster) NodeNames() []string {
	out := make([]string, 0, len(cl.nodes))
	for name := range cl.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Node returns the Client currently serving the named node (after a
// failover, the promoted follower's).
func (cl *Cluster) Node(name string) (*Client, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n, ok := cl.nodes[name]
	if !ok {
		return nil, false
	}
	return n.c, true
}

// RefreshMap polls every reachable node's map and merges the newest
// overrides in. The routing loop self-heals lazily on rejections;
// Refresh is for callers that want to converge proactively (e.g.
// before reporting placement).
func (cl *Cluster) RefreshMap(ctx context.Context) {
	for _, name := range cl.NodeNames() {
		c, _ := cl.Node(name)
		if m, err := c.ClusterMap(ctx); err == nil {
			_, _ = cl.state.Merge(m)
		}
	}
}

// clientFor resolves the session's current owner.
func (cl *Cluster) clientFor(session string) (string, *Client) {
	owner := cl.state.Place(session)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return owner.Name, cl.nodes[owner.Name].c
}

// do routes one logical call: place the session, run f against the
// owner's client, and on a routing rejection or node failure learn
// the correction and retry. Routing rejections (wrong_node/read_only)
// are issued before any part of the request is applied, so re-invoking
// f after one is safe even for ingest. A transport failure is
// different: the dead node may have applied the request and lost only
// the response, so after a successful failover f is re-invoked only
// when retryable marks it safe to replay (reads; never ingest, whose
// replay would duplicate the batch on the promoted follower).
func (cl *Cluster) do(ctx context.Context, session string, retryable bool, f func(c *Client) error) error {
	var lastErr error
	for attempt := 0; attempt < clusterRouteAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryDelay(5*time.Millisecond, 250*time.Millisecond, attempt-1)):
			}
		}
		node, c := cl.clientFor(session)
		err := f(c)
		if err == nil {
			return nil
		}
		lastErr = err
		if u, ok := redirectTarget(err); ok {
			cl.learn(ctx, u)
			continue
		}
		if isTransport(err) && cl.failover(ctx, node) {
			if retryable {
				continue
			}
			// The failover healed the client for later calls, but this
			// one stays ambiguous: surface it instead of guessing.
			return fmt.Errorf("client: node %s stopped answering mid-request and its follower took over; "+
				"the request may or may not have been applied — verify before re-sending: %w", node, err)
		}
		return err
	}
	return fmt.Errorf("client: routing %q did not settle after %d attempts: %w",
		session, clusterRouteAttempts, lastErr)
}

// redirectTarget extracts the better node's URL from a routing
// rejection — wrong_node (no copy here) or read_only (a moved or
// replicated session; writes go to the named owner/primary).
func redirectTarget(err error) (string, bool) {
	if u, ok := api.OwnerFromError(err); ok {
		return u, true
	}
	return api.PrimaryFromError(err)
}

// isTransport reports whether the error is a transport failure (no
// structured response at all) — the signature of a dead node, as
// opposed to a server that answered with an error. A cancelled or
// expired context is the caller giving up, not the node dying, and
// must not trigger a failover.
func isTransport(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *Error
	return !errors.As(err, &ae)
}

// learn absorbs a routing correction pointing at base URL u:
// preferably by merging u's map (the authoritative fix — it carries
// the override that caused the rejection); failing that, u is likely
// a promoted follower outside the map's node set, and it becomes the
// active URL of the node it replicates.
func (cl *Cluster) learn(ctx context.Context, u string) {
	u = strings.TrimRight(u, "/")
	if m, err := New(u, cl.opts...).ClusterMap(ctx); err == nil {
		if _, merr := cl.state.Merge(m); merr == nil {
			return
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, n := range cl.nodes {
		if strings.TrimRight(n.entry.Follower, "/") == u && n.active != u {
			n.active = u
			n.c = New(u, cl.opts...)
		}
	}
}

// failover checks whether the named node's configured follower has
// been promoted to a writable primary, and if so swaps it in as the
// node's active URL. It never promotes anything itself — operators
// (or their tooling) decide failover; the client just follows.
func (cl *Cluster) failover(ctx context.Context, name string) bool {
	cl.mu.Lock()
	n, ok := cl.nodes[name]
	if !ok || n.entry.Follower == "" || n.active == strings.TrimRight(n.entry.Follower, "/") {
		cl.mu.Unlock()
		return false
	}
	follower := strings.TrimRight(n.entry.Follower, "/")
	cl.mu.Unlock()
	st, err := New(follower, cl.opts...).ReplicationStatus(ctx)
	if err != nil || st.Role != RolePrimary {
		return false
	}
	cl.mu.Lock()
	n.active = follower
	n.c = New(follower, cl.opts...)
	cl.mu.Unlock()
	return true
}

// Move moves the session to the target node and adopts the resulting
// map, so this client routes to the new owner immediately.
func (cl *Cluster) Move(ctx context.Context, session, target string) (MoveResponse, error) {
	c, ok := cl.Node(target)
	if !ok {
		return MoveResponse{}, fmt.Errorf("client: unknown target node %q", target)
	}
	resp, err := c.MoveSession(ctx, session, target)
	if err != nil {
		return MoveResponse{}, err
	}
	_, _ = cl.state.Merge(resp.Map)
	return resp, nil
}

// CreateSession opens a session on the node that owns its name.
func (cl *Cluster) CreateSession(ctx context.Context, req CreateSessionRequest) (SessionStats, error) {
	var st SessionStats
	err := cl.do(ctx, req.Name, false, func(c *Client) error {
		var cerr error
		st, cerr = c.CreateSession(ctx, req)
		return cerr
	})
	return st, err
}

// Session returns the session's stats from its owner.
func (cl *Cluster) Session(ctx context.Context, name string) (SessionStats, error) {
	var st SessionStats
	err := cl.do(ctx, name, true, func(c *Client) error {
		var cerr error
		st, cerr = c.Session(ctx, name)
		return cerr
	})
	return st, err
}

// DeleteSession removes the session from its owner.
func (cl *Cluster) DeleteSession(ctx context.Context, name string) error {
	return cl.do(ctx, name, false, func(c *Client) error {
		return c.DeleteSession(ctx, name)
	})
}

// Sessions lists every session in the cluster: each node's list,
// filtered to the sessions it owns (a moved session's retained old
// copy is skipped), merged and sorted by name. Unreachable nodes are
// skipped — the list is best-effort, like any cluster-wide snapshot.
func (cl *Cluster) Sessions(ctx context.Context) ([]SessionStats, error) {
	seen := make(map[string]bool)
	var out []SessionStats
	var lastErr error
	answered := 0
	for _, name := range cl.NodeNames() {
		c, _ := cl.Node(name)
		stats, err := c.Sessions(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		answered++
		for _, st := range stats {
			if cl.Owner(st.Name) != name || seen[st.Name] {
				continue
			}
			seen[st.Name] = true
			out = append(out, st)
		}
	}
	if answered == 0 {
		return nil, lastErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// IngestFrames appends a binary-frame event batch to the session's
// owner (the frames are encoded once and reused across routing
// retries). Routing rejections are chased like every call; a batch the
// server started applying fails like the single-node client's (the
// typed error's Applied field reports progress) and is not replayed.
func (cl *Cluster) IngestFrames(ctx context.Context, session string, events []Event) (EventsResponse, error) {
	buf, err := api.AppendFrames(nil, events)
	if err != nil {
		return EventsResponse{}, err
	}
	var resp EventsResponse
	err = cl.do(ctx, session, false, func(c *Client) error {
		var cerr error
		resp, cerr = c.ingestRaw(ctx, session, buf)
		return cerr
	})
	return resp, err
}

// ReachBatch answers reachability pairs from the session's owner.
func (cl *Cluster) ReachBatch(ctx context.Context, session string, pairs []ReachPair) ([]ReachAnswer, error) {
	var answers []ReachAnswer
	err := cl.do(ctx, session, true, func(c *Client) error {
		var cerr error
		answers, cerr = c.ReachBatch(ctx, session, pairs)
		return cerr
	})
	return answers, err
}

// Reach asks one reachability pair (see Client.Reach).
func (cl *Cluster) Reach(ctx context.Context, session string, from, to int32) (bool, error) {
	var reachable bool
	err := cl.do(ctx, session, true, func(c *Client) error {
		var cerr error
		reachable, cerr = c.Reach(ctx, session, from, to)
		return cerr
	})
	return reachable, err
}

// Lineage returns the full provenance closure of a vertex from the
// session's owner.
func (cl *Cluster) Lineage(ctx context.Context, session string, of int32) ([]int32, error) {
	var out []int32
	err := cl.do(ctx, session, true, func(c *Client) error {
		var cerr error
		out, cerr = c.Lineage(ctx, session, of)
		return cerr
	})
	return out, err
}
