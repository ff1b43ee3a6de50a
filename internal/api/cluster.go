package api

// The cluster control-plane surface of /v1 — the wire contract of a
// session-partitioned cluster (see placement.go for placement,
// internal/cluster for the move machinery, and docs/API.md for the HTTP
// reference):
//
//	GET  /v1/cluster/map      ClusterMap — placement map with overrides
//	GET  /v1/cluster/health   ClusterHealth — role, map version, WAL seqs, peer probes
//	POST /v1/cluster/move     MoveRequest → MoveResponse — move a session to another node
//	POST /v1/cluster/release  ReleaseRequest → ReleaseResponse — owner-side move handoff
//
// A cluster shards *sessions* across nodes: each session is owned by
// exactly one node, chosen deterministically from the map by
// consistent hashing (plus explicit per-session overrides for moved
// sessions). Clients and servers run the identical placement code over
// the identical map, so a request routed by a current map lands on the
// owner; a stale map costs one redirect — the rejection carries the
// owner's URL (CodeWrongNode for sessions the node never had,
// CodeReadOnly for sessions that moved away and left a local copy).

// ClusterNode is one node entry of the cluster map.
type ClusterNode struct {
	// Name is the node's cluster-unique name (the -node flag).
	Name string `json:"name"`
	// URL is the node's base URL, e.g. "http://10.0.0.1:8080".
	URL string `json:"url"`
	// Follower is the base URL of the node's read replica, if it has
	// one — the promote target a smart client fails over to when the
	// node dies.
	Follower string `json:"follower,omitempty"`
	// Weight scales the node's share of the hash ring; zero means 1.
	Weight int `json:"weight,omitempty"`
}

// ClusterOverride pins one session to a node regardless of its hash
// placement — the record of a move. The owner installs it at release,
// pending: From, FinalSeq and ChainHead set. The new owner replaces it
// with a plain override naming only itself once it has verified the
// move, and takes no write while it is pending.
type ClusterOverride struct {
	// Node is the owning node's name. Empty on a tombstone (Deleted).
	Node string `json:"node,omitempty"`
	// Version is the map version at which the override was installed.
	// When two maps disagree about a session, the higher version wins —
	// a session's overrides are serialized by its successive owners, so
	// versions along a move chain strictly increase.
	Version int64 `json:"version"`
	// From is the name of the node that released the session to Node —
	// the source a pending move drains from. Empty once the move is
	// verified, on operator-pinned overrides and on tombstones.
	From string `json:"from,omitempty"`
	// FinalSeq is the source's sealed final WAL sequence at release:
	// Node verifies its copy at this sequence. Zero once the move is
	// verified, on operator-pinned overrides and on tombstones.
	FinalSeq int64 `json:"final_seq,omitempty"`
	// ChainHead is the source's WAL hash-chain head at FinalSeq (hex),
	// recorded at release so the target — a resumed drain included —
	// can prove the history it applied is the history that was sealed
	// before it takes writes. Empty once the move is verified, on
	// operator-pinned overrides and on tombstones.
	ChainHead string `json:"chain_head,omitempty"`
	// Deleted marks a tombstone: the session was deleted at its owner
	// and places by hash again. Tombstones gossip like live overrides
	// (higher version wins), so peers drop their stale entries instead
	// of re-infecting the deleting node on its next probe.
	Deleted bool `json:"deleted,omitempty"`
}

// ClusterMap is the versioned placement map: the node set (static
// configuration) plus per-session overrides for moved sessions.
// Placement is deterministic in the map alone, so every holder of the
// same map routes identically.
type ClusterMap struct {
	// Version counts map changes; each move bumps it. Nodes merge maps
	// by adopting the per-session override with the higher version and
	// raising Version to the maximum seen.
	Version int64 `json:"version"`
	// Nodes is the node set, sorted by name.
	Nodes []ClusterNode `json:"nodes"`
	// Overrides maps session name → pinned placement.
	Overrides map[string]ClusterOverride `json:"overrides,omitempty"`
}

// Node returns the named node entry.
func (m ClusterMap) Node(name string) (ClusterNode, bool) {
	for _, n := range m.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return ClusterNode{}, false
}

// Clone returns a deep copy of the map.
func (m ClusterMap) Clone() ClusterMap {
	cp := m
	cp.Nodes = append([]ClusterNode(nil), m.Nodes...)
	if m.Overrides != nil {
		cp.Overrides = make(map[string]ClusterOverride, len(m.Overrides))
		for k, v := range m.Overrides {
			cp.Overrides[k] = v
		}
	}
	return cp
}

// ClusterPeer is one peer's health as seen by the reporting node's
// prober.
type ClusterPeer struct {
	// Name and URL identify the peer.
	Name string `json:"name"`
	URL  string `json:"url"`
	// Up reports whether the last probe succeeded.
	Up bool `json:"up"`
	// MapVersion is the peer's map version at the last successful
	// probe.
	MapVersion int64 `json:"map_version,omitempty"`
	// Error is the last probe failure (cleared on recovery).
	Error string `json:"error,omitempty"`
	// AgeMS is how long ago the peer last answered a probe, in
	// milliseconds; -1 if it never has.
	AgeMS int64 `json:"age_ms"`
}

// ClusterHealth is the body of GET /v1/cluster/health: the node's own
// state plus what its prober knows about the peers.
type ClusterHealth struct {
	// Node is the reporting node's name.
	Node string `json:"node"`
	// MapVersion is the node's current map version.
	MapVersion int64 `json:"map_version"`
	// Role is the node's replication role (RolePrimary or
	// RoleFollower).
	Role string `json:"role"`
	// Sessions reports each local session's committed WAL sequence —
	// the same shape the replication status uses, so movers and lag
	// monitors read one format.
	Sessions []SessionReplication `json:"sessions"`
	// Peers is the prober's latest view of the other nodes.
	Peers []ClusterPeer `json:"peers,omitempty"`
	// Metrics is the node's typed metrics snapshot — the health-check
	// form of GET /v1/metrics, for callers that want numbers without a
	// Prometheus parser. Absent on servers built before the field.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot is a typed point-in-time cut of the node's metrics
// registry: the handful of numbers an operator health check or a
// routing client reads most, without scraping and parsing the full
// GET /v1/metrics exposition. Counters are process-lifetime totals;
// latencies are registry-histogram quantiles in microseconds.
type MetricsSnapshot struct {
	// Sessions is the open session count.
	Sessions int64 `json:"sessions"`
	// IngestEvents / IngestBytes total ingested events and wire bytes.
	IngestEvents int64 `json:"ingest_events"`
	IngestBytes  int64 `json:"ingest_bytes,omitempty"`
	// WALAppends counts records appended across every session log;
	// WALCommitP99US / WALFsyncP99US are the p99 group-commit wait and
	// fsync latency in microseconds.
	WALAppends     int64   `json:"wal_appends"`
	WALCommitP99US float64 `json:"wal_commit_p99_us,omitempty"`
	WALFsyncP99US  float64 `json:"wal_fsync_p99_us,omitempty"`
	// SnapshotWrites counts arena snapshots written; ArenaMaps is the
	// number of snapshot mappings the node currently holds and
	// ArenaMappedBytes their total size — both fall when a mapping is
	// given back, not when its session is deleted.
	SnapshotWrites   int64 `json:"snapshot_writes,omitempty"`
	ArenaMaps        int64 `json:"arena_maps,omitempty"`
	ArenaMappedBytes int64 `json:"arena_mapped_bytes,omitempty"`
	// ReplicaLagEvents / ReplicaLagSeconds report the follower's worst
	// per-session tail lag (zero on primaries).
	ReplicaLagEvents  int64   `json:"replica_lag_events"`
	ReplicaLagSeconds float64 `json:"replica_lag_seconds,omitempty"`
	// MovesCompleted counts completed session moves this node received;
	// the rejection counters are misrouted requests this node turned
	// away (the smart client's redirect food).
	MovesCompleted      int64 `json:"moves_completed"`
	WrongNodeRejections int64 `json:"wrong_node_rejections"`
	ReadOnlyRejections  int64 `json:"read_only_rejections"`
	// ChainFramesVerified counts WAL frames hashed by verification
	// passes (restore anchors, replica cross-checks, move drains).
	ChainFramesVerified int64 `json:"chain_frames_verified,omitempty"`
}

// MoveRequest is the JSON body of POST /v1/cluster/move: move the
// session to the target node. It may be POSTed to any node — a node
// that is not the target forwards it; the target pulls the session's
// WAL from the owner, catches up, takes the handoff, and answers.
type MoveRequest struct {
	// Session is the session to move.
	Session string `json:"session"`
	// Target is the receiving node's name.
	Target string `json:"target"`
}

// MoveResponse reports a completed (or idempotently skipped) move.
type MoveResponse struct {
	// Session echoes the moved session.
	Session string `json:"session"`
	// From is the node that owned the session before the move; equal
	// to To when the target already owned it.
	From string `json:"from"`
	// To is the owning node after the move.
	To string `json:"to"`
	// Events is the session's event count on the target after the
	// move.
	Events int64 `json:"events"`
	// Map is the target's map after the move, override included —
	// callers adopt it instead of rediscovering the placement.
	Map ClusterMap `json:"map"`
}

// ReleaseRequest is the JSON body of POST /v1/cluster/release — the
// owner-side half of a move, sent by the caught-up target: install the
// override, seal the session against further local ingest, and report
// the final WAL sequence the target must drain to. It is an internal
// step of the move protocol; operators normally POST /v1/cluster/move.
type ReleaseRequest struct {
	// Session is the session being handed off.
	Session string `json:"session"`
	// Node is the new owner's name, URL its base URL (what the sealed
	// session's read_only rejections will point at).
	Node string `json:"node"`
	URL  string `json:"url"`
}

// ReleaseResponse acknowledges a handoff.
type ReleaseResponse struct {
	// ChainHead is the sealed session's WAL hash-chain head at
	// FinalSeq (hex). The target verifies the head of its own log at
	// FinalSeq against it before it takes writes.
	ChainHead string `json:"chain_head,omitempty"`
	// FinalSeq is the sealed session's last appended WAL sequence; the
	// handoff is complete once the target has applied through it.
	FinalSeq int64 `json:"final_seq"`
	// Map is the owner's map with the new override installed.
	Map ClusterMap `json:"map"`
}
