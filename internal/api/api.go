// Package api is the single source of truth for the wfserve wire
// contract: every request and response type of the versioned /v1 HTTP
// surface, the structured error model shared by server and clients,
// the binary ingest frame — the WAL's frame, one batch of events each
// (frame.go) — and the binary batch-reach form.
//
// The package deliberately holds no behavior beyond encoding and
// placement — the server (internal/service) maps these types onto
// sessions, the Go SDK (package client) re-exports them for external
// callers, and the command-line tools build on the SDK. Placement
// (placement.go) is here because it is contract too: the SDK and every
// cluster node must name the same owner for a session. Anything that
// goes over the wire is declared here exactly once.
//
// # Endpoints (v1)
//
//	POST   /v1/sessions                   create (CreateSessionRequest, or raw spec XML)
//	GET    /v1/sessions                   list sessions (ListSessionsResponse)
//	GET    /v1/sessions/{name}            stats (SessionStats)
//	GET    /v1/sessions/{name}/stats      stats (SessionStats)
//	DELETE /v1/sessions/{name}            delete
//	POST   /v1/sessions/{name}/events     ingest: JSON EventsRequest, or a
//	                                      ContentTypeFrame binary frame stream
//	POST   /v1/sessions/{name}/reach      batch reachability: ContentTypeReach binary
//	                                      (reach.go), or JSON BatchReachRequest
//	GET    /v1/sessions/{name}/lineage    ?of=&cursor=&limit= (one page)
//	GET    /v1/sessions/{name}/spec       the session's specification XML
//	GET    /v1/sessions/{name}/wal        tail the session's WAL (replication.go)
//	GET    /v1/replication/status         ReplicationStatus
//	POST   /v1/replication/promote        follower → writable primary
package api

import (
	"slices"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// Content types of the /v1 surface.
const (
	// ContentTypeJSON marks JSON request and response bodies (the
	// default for every endpoint).
	ContentTypeJSON = "application/json"
	// ContentTypeFrame marks a binary event-frame stream on the events
	// endpoint (see AppendFrames / FrameReader).
	ContentTypeFrame = "application/x-wfreach-frame"
	// ContentTypeReach marks a binary batch-reach request, and the
	// response to one (see AppendReachRequest / AppendReachResponse). It
	// shares no prefix with ContentTypeFrame past "x-wfreach-": the
	// events route matches that one by prefix.
	ContentTypeReach = "application/x-wfreach-reach"
	// ContentTypeXML marks a raw specification upload on the create
	// endpoint.
	ContentTypeXML = "application/xml"
)

// Event is the wire form of one execution event. Exactly one of
// (Graph, Vertex) or Name identifies the executed specification
// vertex: the ref form mirrors run.Event, the name form
// core.NamedEvent (the Section 5.3 naming-restriction setting).
type Event struct {
	// V is the new run vertex being executed.
	V int32 `json:"v"`
	// Graph and Vertex name the specification vertex (ref form).
	Graph  *int32 `json:"graph,omitempty"`
	Vertex *int32 `json:"vertex,omitempty"`
	// Name is the executed module's name (name form).
	Name string `json:"name,omitempty"`
	// Preds are V's immediate predecessors in the run.
	Preds []int32 `json:"preds"`
}

// FromRun converts a run event to its wire form.
func FromRun(ev run.Event) Event {
	g, v := int32(ev.Ref.Graph), int32(ev.Ref.V)
	w := Event{V: int32(ev.V), Graph: &g, Vertex: &v}
	for _, p := range ev.Preds {
		w.Preds = append(w.Preds, int32(p))
	}
	return w
}

func (e Event) preds() []graph.VertexID {
	if len(e.Preds) == 0 {
		return nil
	}
	out := make([]graph.VertexID, len(e.Preds))
	for i, p := range e.Preds {
		out[i] = graph.VertexID(p)
	}
	return out
}

// check validates the wire event: exactly one of the two
// identification forms is present and no run vertex id is negative
// (the log cannot frame one). The error is a *Error with CodeBadEvent.
func (e Event) check() error {
	switch {
	case e.V < 0 || slices.ContainsFunc(e.Preds, func(p int32) bool { return p < 0 }):
		return Errorf(CodeBadEvent, "vertex %d: v and preds must be non-negative", e.V)
	case e.Name != "" && (e.Graph != nil || e.Vertex != nil):
		return Errorf(CodeBadEvent, "name and graph/vertex are mutually exclusive")
	case e.Name == "" && (e.Graph == nil || e.Vertex == nil):
		return Errorf(CodeBadEvent, "needs either name or graph+vertex")
	}
	return nil
}

// Record converts the wire event to its WAL record form, or reports
// why it is malformed (see check).
func (e Event) Record() (wal.Record, error) {
	if err := e.check(); err != nil {
		return wal.Record{}, err
	}
	if e.Name != "" {
		return wal.NamedRecord(core.NamedEvent{V: graph.VertexID(e.V), Name: e.Name, Preds: e.preds()}), nil
	}
	return wal.RefRecord(run.Event{
		V:     graph.VertexID(e.V),
		Ref:   spec.VertexRef{Graph: spec.GraphID(*e.Graph), V: graph.VertexID(*e.Vertex)},
		Preds: e.preds(),
	}), nil
}

// CreateSessionRequest is the JSON body of POST /v1/sessions.
type CreateSessionRequest struct {
	// Name is the new session's registry name.
	Name string `json:"name"`
	// Builtin names a built-in specification, SpecXML carries a full
	// specification inline; exactly one must be set.
	Builtin string `json:"builtin,omitempty"`
	SpecXML string `json:"spec_xml,omitempty"`
	// Skeleton and RMode may name the one labeling every session uses:
	// "TCL", and "designated" or "designated-R". Empty means the same;
	// any other name is refused with bad_request.
	Skeleton string `json:"skeleton,omitempty"`
	RMode    string `json:"rmode,omitempty"`
}

// SessionStats is a point-in-time snapshot of one session, returned
// by create, get, stats and list.
type SessionStats struct {
	// Name is the session's registry name.
	Name string `json:"name"`
	// ID is the session's stable identity: names are reusable (delete
	// + recreate), identities are not, which is how a replica tells a
	// session apart from a new one that took the same name. Empty only
	// for sessions restored from data written before the field existed.
	ID string `json:"id,omitempty"`
	// Class is the grammar's recursion class.
	Class string `json:"class"`
	// Skeleton and Mode are always "TCL" and "designated-R", the one
	// labeling every session uses. They are kept for one API version
	// and will then be dropped.
	Skeleton string `json:"skeleton"`
	Mode     string `json:"mode"`
	// Vertices is the number of labeled vertices.
	Vertices int64 `json:"vertices"`
	// ArenaVertices is the number of labels served zero-copy from a
	// mapped arena snapshot (see internal/arena); 0 for sessions whose
	// labels are all heap-resident.
	ArenaVertices int64 `json:"arena_vertices,omitempty"`
	// Batches is the number of event batches ingested since the
	// session was opened or restored in this process.
	Batches int64 `json:"batches"`
	// LabelBits is the total size of the stored encoded labels.
	LabelBits int `json:"label_bits"`
	// SkeletonBits is the size of the shared skeleton labeling.
	SkeletonBits int `json:"skeleton_bits"`
	// PublishEpoch counts the store publishes that made new labels
	// visible to the query path.
	PublishEpoch int64 `json:"publish_epoch"`
	// Durable is always true: every session persists its events to a
	// write-ahead log. It is kept for one API version and will then be
	// dropped.
	Durable bool `json:"durable,omitempty"`
}

// ListSessionsResponse is the body of GET /v1/sessions.
type ListSessionsResponse struct {
	// Sessions holds one stats snapshot per open session, sorted by
	// name.
	Sessions []SessionStats `json:"sessions"`
}

// SessionIntegrity is the body of GET /v1/sessions/{name}/integrity:
// the session's tamper-evidence anchors. An external auditor that
// periodically fetches and stores this answer off-system can later
// prove or refute the server's entire event history with cmd/wfverify
// — the chain head commits to every WAL byte up to WALSeq, and the
// Merkle root commits to every label the last snapshot served.
// Sessions without a hash-chained log (closed or poisoned, or data
// predating the chain) answer a typed CodeNotDurable error instead: integrity
// is unavailable there, not violated.
type SessionIntegrity struct {
	// Session is the session's registry name.
	Session string `json:"session"`
	// ChainHead is the WAL frame hash-chain head (lowercase hex
	// SHA-256) covering records [1, WALSeq].
	ChainHead string `json:"chain_head"`
	// WALSeq is the sequence of the last record the chain head covers
	// — every event appended at the time of the answer.
	WALSeq int64 `json:"wal_seq"`
	// MerkleRoot is the Merkle root over the label extents of the last
	// integrity-stamped snapshot (empty until one exists).
	MerkleRoot string `json:"merkle_root,omitempty"`
	// SnapshotWatermark is the WAL record count that snapshot covers.
	SnapshotWatermark int64 `json:"snapshot_watermark,omitempty"`
}

// EventsRequest is the JSON body of POST /v1/sessions/{name}/events.
type EventsRequest struct {
	Events []Event `json:"events"`
}

// EventsResponse reports how far an ingest batch got.
type EventsResponse struct {
	// Applied is the number of events ingested from this request.
	Applied int `json:"applied"`
	// Vertices is the session's labeled-vertex total afterwards.
	Vertices int64 `json:"vertices"`
}

// ReachPair is one reachability question: does From reach To?
type ReachPair struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// ReachAnswer answers one reachability pair. A pair that could not be
// answered (typically CodeVertexNotLabeled: the vertex has not been
// executed yet) carries its error inline — one bad pair never fails
// the batch.
type ReachAnswer struct {
	// From and To echo the queried vertices.
	From int32 `json:"from"`
	To   int32 `json:"to"`
	// Reachable reports whether From reaches To (reflexive). Only
	// meaningful when Code is empty.
	Reachable bool `json:"reachable"`
	// Code and Error are set iff this pair failed.
	Code  ErrorCode `json:"code,omitempty"`
	Error string    `json:"error,omitempty"`
}

// BatchReachRequest is the JSON body of POST
// /v1/sessions/{name}/reach: many pairs, one roundtrip.
type BatchReachRequest struct {
	Pairs []ReachPair `json:"pairs"`
}

// MaxReachPairs caps the pairs accepted in one batch reach request.
const MaxReachPairs = 4096

// MaxReachJSONBytes caps the JSON body of a batch reach request; a
// larger one is refused before it is parsed. A pair is at most 38 bytes
// of compact JSON; the rest is room for whitespace. (The binary form's
// cap is MaxReachRequestBytes.)
const MaxReachJSONBytes = 48 * MaxReachPairs

// BatchReachResponse answers a batch reach request, one answer per
// pair, in request order.
type BatchReachResponse struct {
	Results []ReachAnswer `json:"results"`
}

// LineageResponse is one page of GET /v1/sessions/{name}/lineage.
type LineageResponse struct {
	// Of echoes the queried vertex.
	Of int32 `json:"of"`
	// Ancestors are labeled vertices that reach Of, ascending.
	Ancestors []int32 `json:"ancestors"`
	// NextCursor, when non-empty, resumes the scan after the last
	// returned ancestor (pass it back as ?cursor=). Labels are
	// write-once, so every ancestor a page reports stays correct;
	// ancestors published after a page was served may be missed until
	// the scan is re-run.
	NextCursor string `json:"next_cursor,omitempty"`
}

// DefaultLineageLimit is the page size of a lineage request without a
// limit; MaxLineageLimit caps any requested page size.
const (
	DefaultLineageLimit = 1024
	MaxLineageLimit     = 1 << 16
)
