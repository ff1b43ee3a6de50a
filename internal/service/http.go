package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfxml"
)

// The HTTP surface, one resource per session. Wire types, error codes
// and the binary ingest frame all live in internal/api — this file
// only maps them onto sessions. The versioned routes:
//
//	POST   /v1/sessions                   create (JSON body, or raw spec XML)
//	GET    /v1/sessions                   list sessions with stats
//	GET    /v1/sessions/{name}            stats
//	GET    /v1/sessions/{name}/stats      stats
//	DELETE /v1/sessions/{name}            delete
//	POST   /v1/sessions/{name}/events     ingest: JSON batch, or binary frame stream
//	POST   /v1/sessions/{name}/reach      batch reachability
//	GET    /v1/sessions/{name}/lineage    ?of=V&cursor=&limit= (one page)
//	GET    /v1/sessions/{name}/spec       the session's specification XML
//	GET    /v1/sessions/{name}/integrity  tamper-evidence anchors (chain head, Merkle root)
//	GET    /v1/sessions/{name}/wal        ?from=S&wait= — tail the WAL (replication)
//	GET    /v1/replication/status         replication role and per-session progress
//	POST   /v1/replication/promote        follower → writable primary
//	GET    /v1/metrics                    Prometheus text exposition (internal/obs)
//	GET    /v1/cluster/map                the cluster placement map (cluster mode)
//	GET    /v1/cluster/health             node role, WAL seqs, peer probes
//	POST   /v1/cluster/move               move a session to another node
//	POST   /v1/cluster/release            owner-side move handoff (internal)
//
// A known path hit with the wrong method is a 405 with an Allow
// header; an unknown path — any path without the /v1 prefix included —
// is a structured 404.
//
// On a follower (Registry.SetFollower) the write routes — create,
// delete, ingest — answer CodeReadOnly with the primary's base URL in
// the error detail; everything else, including WAL tails (chained
// replication), keeps working.
//
// In cluster mode (Registry.SetClusterHooks) every session route is
// additionally gated by placement: a session this node does not own is
// rejected with CodeWrongNode (no local copy) or CodeReadOnly (a moved
// session's retained copy — writes only) carrying the owner's base URL
// in the error detail. Without cluster hooks the /v1/cluster routes
// answer CodeNotClustered.
//
// Create accepts either a JSON body (api.CreateSessionRequest: a
// built-in spec name or an inline spec XML string) or a raw XML specification with
// Content-Type application/xml and the session options in query
// parameters (?name=...&skeleton=TCL&rmode=designated).

// NewHandler returns the HTTP handler serving the registry.
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	// rejectFollower guards a write route: on a follower every write is
	// misdirected, and the structured rejection names the primary so
	// the client can redirect (the SDK does so automatically).
	rejectFollower := func(w http.ResponseWriter) bool {
		primary, ok := reg.FollowerPrimary()
		if !ok {
			return false
		}
		writeError(w, api.Errorf(api.CodeReadOnly, "server is a read-only follower; send writes to the primary").
			WithDetail("%s", primary))
		return true
	}
	routes := []struct {
		path    string
		methods map[string]http.HandlerFunc
	}{
		{"/sessions", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				if rejectFollower(w) {
					return
				}
				handleCreate(reg, w, r)
			},
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) { handleList(reg, w) },
		}},
		{"/sessions/{name}", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					writeJSON(w, http.StatusOK, s.Stats())
				}
			},
			http.MethodDelete: func(w http.ResponseWriter, r *http.Request) {
				if rejectFollower(w) {
					return
				}
				name := r.PathValue("name")
				if clusterReject(reg, w, name, true) {
					return
				}
				if !reg.Delete(name) {
					writeError(w, api.Errorf(api.CodeSessionNotFound, "no session %q", name))
					return
				}
				if h := reg.Cluster(); h != nil && h.Forget != nil {
					// The name is free again; a recreate places by hash.
					h.Forget(name)
				}
				w.WriteHeader(http.StatusNoContent)
			},
		}},
		{"/sessions/{name}/stats", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					writeJSON(w, http.StatusOK, s.Stats())
				}
			},
		}},
		{"/sessions/{name}/integrity", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					st, err := s.Integrity()
					if err != nil {
						writeError(w, err)
						return
					}
					writeJSON(w, http.StatusOK, st)
				}
			},
		}},
		{"/sessions/{name}/spec", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					handleSpec(s, w)
				}
			},
		}},
		{"/sessions/{name}/wal", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					handleWALTail(s, w, r)
				}
			},
		}},
		{"/metrics", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				reg.Obs().ServeHTTP(w, r)
			},
		}},
		{"/replication/status", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, reg.ReplicationStatus())
			},
		}},
		{"/replication/promote", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				if err := reg.PromoteFollower(r.Context()); err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, reg.ReplicationStatus())
			},
		}},
		{"/cluster/map", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if h := clusterHooks(reg, w); h != nil {
					writeJSON(w, http.StatusOK, h.Map())
				}
			},
		}},
		{"/cluster/health", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if h := clusterHooks(reg, w); h != nil {
					writeJSON(w, http.StatusOK, h.Health())
				}
			},
		}},
		{"/cluster/move", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				h := clusterHooks(reg, w)
				if h == nil {
					return
				}
				var req api.MoveRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					writeError(w, api.Errorf(api.CodeBadJSON, "bad JSON body: %v", err))
					return
				}
				resp, err := h.Move(r.Context(), req)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, resp)
			},
		}},
		{"/cluster/release", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				h := clusterHooks(reg, w)
				if h == nil {
					return
				}
				var req api.ReleaseRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					writeError(w, api.Errorf(api.CodeBadJSON, "bad JSON body: %v", err))
					return
				}
				resp, err := h.Release(r.Context(), req)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, resp)
			},
		}},
		{"/sessions/{name}/events", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				if rejectFollower(w) {
					return
				}
				if clusterReject(reg, w, r.PathValue("name"), true) {
					return
				}
				if s := lookup(reg, w, r); s != nil {
					// Wire-byte accounting at request grain: the body size is
					// what the client actually shipped, JSON or binary.
					if r.ContentLength > 0 {
						s.AddIngestBytes(r.ContentLength)
					}
					handleEvents(s, &reg.ingestScratch, w, r)
				}
			},
		}},
		{"/sessions/{name}/reach", map[string]http.HandlerFunc{
			http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					handleReachBatch(s, &reg.reachScratch, w, r)
				}
			},
		}},
		{"/sessions/{name}/lineage", map[string]http.HandlerFunc{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				if s := lookup(reg, w, r); s != nil {
					handleLineage(s, w, r)
				}
			},
		}},
	}
	for _, rt := range routes {
		mux.HandleFunc("/v1"+rt.path, methodDispatch(rt.methods))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, api.Errorf(api.CodeNotFound, "no route %s", r.URL.Path))
	})
	return mux
}

// methodDispatch serves one path: the matching method's handler, or a
// structured 405 naming the allowed methods. HEAD rides on GET —
// net/http discards the body it writes.
func methodDispatch(methods map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(methods)+1)
	for m := range methods {
		allowed = append(allowed, m)
	}
	if _, ok := methods[http.MethodGet]; ok {
		allowed = append(allowed, http.MethodHead)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		m := r.Method
		if m == http.MethodHead {
			m = http.MethodGet
		}
		if h, ok := methods[m]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeError(w, api.Errorf(api.CodeMethodNotAllowed, "method %s not allowed", r.Method).
			WithDetail("allow %s", allow))
	}
}

// clusterHooks returns the installed cluster hooks, answering
// CodeNotClustered when there are none.
func clusterHooks(reg *Registry, w http.ResponseWriter) *ClusterHooks {
	h := reg.Cluster()
	if h == nil {
		writeError(w, api.Errorf(api.CodeNotClustered, "server is not running in cluster mode"))
	}
	return h
}

// clusterReject gates a session route by cluster placement, reporting
// whether a routing rejection was written. Not clustered: no gate.
func clusterReject(reg *Registry, w http.ResponseWriter, session string, write bool) bool {
	h := reg.Cluster()
	if h == nil || h.Route == nil {
		return false
	}
	if err := h.Route(session, write); err != nil {
		writeError(w, err)
		return true
	}
	return false
}

func lookup(reg *Registry, w http.ResponseWriter, r *http.Request) *Session {
	name := r.PathValue("name")
	s, ok := reg.Get(name)
	if !ok {
		// An absent session owned by another node is a routing miss, not
		// a 404 — the rejection names the owner.
		if clusterReject(reg, w, name, false) {
			return nil
		}
		writeError(w, api.Errorf(api.CodeSessionNotFound, "no session %q", name))
		return nil
	}
	return s
}

func handleList(reg *Registry, w http.ResponseWriter) {
	resp := api.ListSessionsResponse{Sessions: []Stats{}}
	for _, name := range reg.Names() {
		if s, ok := reg.Get(name); ok {
			resp.Sessions = append(resp.Sessions, s.Stats())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleCreate(reg *Registry, w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/xml") || strings.HasPrefix(ct, "text/xml") {
		// Raw XML upload: the body is the specification, options travel
		// in query parameters.
		s, err := wfxml.DecodeSpec(r.Body)
		if err != nil {
			writeError(w, api.Errorf(api.CodeBadSpec, "%v", err))
			return
		}
		q := r.URL.Query()
		createSession(reg, w, q.Get("name"), s, q.Get("skeleton"), q.Get("rmode"))
		return
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, api.Errorf(api.CodeBadJSON, "bad JSON body: %v", err))
		return
	}
	var sp *spec.Spec
	switch {
	case req.Builtin != "" && req.SpecXML != "":
		writeError(w, api.Errorf(api.CodeBadRequest, "builtin and spec_xml are mutually exclusive"))
		return
	case req.Builtin != "":
		var ok bool
		if sp, ok = Builtin(req.Builtin); !ok {
			writeError(w, api.Errorf(api.CodeUnknownBuiltin, "unknown builtin %q", req.Builtin).
				WithDetail("have %s", strings.Join(BuiltinNames(), ", ")))
			return
		}
	case req.SpecXML != "":
		var err error
		if sp, err = wfxml.DecodeSpec(strings.NewReader(req.SpecXML)); err != nil {
			writeError(w, api.Errorf(api.CodeBadSpec, "%v", err))
			return
		}
	default:
		writeError(w, api.Errorf(api.CodeBadRequest, "one of builtin or spec_xml is required"))
		return
	}
	createSession(reg, w, req.Name, sp, req.Skeleton, req.RMode)
}

func createSession(reg *Registry, w http.ResponseWriter, name string, sp *spec.Spec, skelName, modeName string) {
	if name == "" {
		writeError(w, api.Errorf(api.CodeBadRequest, "session name is required"))
		return
	}
	if reg.Durable() {
		// Report unusable names as a client error; Create would reject
		// them anyway, but with a conflict status.
		if err := validateSessionName(name); err != nil {
			writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
	}
	if clusterReject(reg, w, name, true) {
		return
	}
	cfg, err := ParseConfig(skelName, modeName)
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	g, err := spec.Compile(sp)
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadSpec, "%v", err))
		return
	}
	s, err := reg.Create(name, g, cfg)
	if err != nil {
		// Name collisions (including leftover on-disk data) are the
		// client's problem; a registry that cannot persist is not —
		// toAPIError maps ErrDurability to a 5xx.
		if !errors.Is(err, ErrDurability) {
			err = api.Errorf(api.CodeSessionExists, "%v", err)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Stats())
}

func ParseConfig(skelName, modeName string) (Config, error) {
	cfg := Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated}
	switch skelName {
	case "", "TCL":
	case "BFS":
		cfg.Skeleton = skeleton.BFS
	default:
		return cfg, fmt.Errorf("unknown skeleton %q (want TCL or BFS)", skelName)
	}
	switch modeName {
	case "", "designated", "designated-R":
	case "none", "no-R":
		cfg.Mode = core.RModeNone
	default:
		return cfg, fmt.Errorf("unknown rmode %q (want designated or none)", modeName)
	}
	return cfg, nil
}

func handleEvents(s *Session, free *scratchList[*ingestScratch], w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), api.ContentTypeFrame) {
		handleEventsBinary(s, free, w, r)
		return
	}
	var req api.EventsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, api.Errorf(api.CodeBadJSON, "bad JSON body: %v", err))
		return
	}
	recs := make([]wal.Record, len(req.Events))
	for i, ev := range req.Events {
		rec, err := ev.Record()
		if err != nil {
			writeError(w, api.Errorf(api.CodeBadEvent, "event %d: %s", i, api.AsError(err, api.CodeBadEvent).Message))
			return
		}
		recs[i] = rec
	}
	applied, err := s.AppendRecords(recs, nil)
	if err != nil {
		writeIngestError(w, err, applied)
		return
	}
	writeJSON(w, http.StatusOK, api.EventsResponse{Applied: applied, Vertices: s.Vertices()})
}

// binaryChunk is how many frames of a binary ingest body go into one
// AppendRecords call.
const binaryChunk = 512

// maxIdleFrameBytes is the largest frame buffer an ingestScratch may
// carry back to the free list: a body of near-MaxFramePayload frames
// grows it by orders of magnitude, and that should not outlive the
// request.
const maxIdleFrameBytes = 1 << 20

// ingestScratch is everything handleEventsBinary needs besides the
// session: the frame reader (its 64 KiB read buffer, frame buffer and
// predecessor arena) and the batch its records and frame copies are
// collected in. It is reused across requests through the registry's
// scratchList; between requests it references nothing of the last one.
type ingestScratch struct {
	fr    *api.FrameReader
	batch batchScratch
}

func newIngestScratch() *ingestScratch {
	sc := &ingestScratch{fr: api.NewFrameReader(nil)}
	sc.batch.recs = make([]wal.Record, 0, binaryChunk)
	sc.batch.frames = make([][]byte, 0, binaryChunk)
	return sc
}

// reset empties sc of the request it served: records are cleared so
// names and predecessor slices are not retained, the body is dropped,
// and a scratch whose frame buffer outgrew maxIdleFrameBytes is not
// worth keeping.
func (sc *ingestScratch) reset() (keep bool) {
	sc.fr.Reset(nil)
	sc.batch.reset()
	return cap(sc.batch.buf) <= maxIdleFrameBytes
}

// scratch is a handler's reusable buffers. reset empties them of the
// request they served and reports whether they are worth keeping.
type scratch interface{ reset() (keep bool) }

// scratchList is a node's free list of one kind of idle scratch: a
// request takes one (or makes one when none is idle) and puts it back
// when it is done. It plays the part of a sync.Pool and is not one
// because the request paths' allocation counts are gated to the percent
// and must repeat run for run: a sync.Pool is emptied by the collector,
// and under the race detector drops a quarter of its Puts at random.
// The list lives inside its Registry and allocates nothing of its own.
type scratchList[S scratch] struct {
	fresh func() S

	mu   sync.Mutex
	idle [scratchSlots]S // idle[:n] are parked
	n    int
}

// scratchSlots bounds the idle scratch of one kind a node keeps (an
// ingestScratch is about 130 KiB, a reachScratch at most
// maxIdleReachBytes and a batch of pairs): enough for a few concurrent
// requests, the usual case being one ordered writer per session and a
// handful of readers. More of them at once than slots allocate per
// request, as every request used to.
const scratchSlots = 4

func (l *scratchList[S]) get() S {
	var sc S
	l.mu.Lock()
	parked := l.n > 0
	if parked {
		l.n--
		sc, l.idle[l.n] = l.idle[l.n], sc // the slot keeps no reference
	}
	l.mu.Unlock()
	if !parked {
		return l.fresh()
	}
	return sc
}

// put resets sc and parks it for the next request, or leaves it to the
// collector when it is not worth keeping or every slot is taken.
func (l *scratchList[S]) put(sc S) {
	if !sc.reset() {
		return
	}
	l.mu.Lock()
	if l.n < len(l.idle) {
		l.idle[l.n] = sc
		l.n++
	}
	l.mu.Unlock()
}

// handleEventsBinary ingests a ContentTypeFrame body: a concatenation
// of binary event frames (internal/api), applied in order in chunks.
// On a durable session each accepted frame is teed to the write-ahead
// log byte-for-byte — the frame formats are identical, so nothing is
// re-encoded. Like the JSON route, a failure mid-stream leaves the
// applied prefix ingested and reports it.
//
// Records and frames of a chunk alias the shared scratch and are dead
// once AppendRecords returns: flush rewinds both before the next chunk
// is read.
func handleEventsBinary(s *Session, free *scratchList[*ingestScratch], w http.ResponseWriter, r *http.Request) {
	sc := free.get()
	defer free.put(sc)
	sc.fr.Reset(r.Body)
	fr, b := sc.fr, &sc.batch
	applied := 0
	flush := func() error {
		if len(b.recs) == 0 {
			return nil
		}
		frames := b.frames
		if !s.durable {
			frames = nil // none were kept
		}
		n, err := s.AppendRecords(b.recs, frames)
		applied += n
		b.reset()
		fr.Release()
		return err
	}
	for {
		rec, frame, err := fr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// The decoded prefix is a valid partial execution: apply it,
			// then report the damage with the applied count.
			if ferr := flush(); ferr != nil {
				writeIngestError(w, ferr, applied)
				return
			}
			writeErrorApplied(w, api.AsError(err, api.CodeBadFrame), applied)
			return
		}
		// Frames are only kept when there is a log to tee them to; a
		// memory session ingests the records alone.
		if !s.durable {
			frame = nil
		}
		b.add(rec, frame)
		if len(b.recs) >= binaryChunk {
			if err := flush(); err != nil {
				writeIngestError(w, err, applied)
				return
			}
		}
	}
	if err := flush(); err != nil {
		writeIngestError(w, err, applied)
		return
	}
	writeJSON(w, http.StatusOK, api.EventsResponse{Applied: applied, Vertices: s.Vertices()})
}

// writeIngestError reports an AppendRecords failure: a poisoned
// durable session is the server's fault, anything else is the event
// at the failing index (== applied, counted over the whole request).
func writeIngestError(w http.ResponseWriter, err error, applied int) {
	if errors.Is(err, ErrDurability) {
		writeErrorApplied(w, err, applied)
		return
	}
	writeErrorApplied(w, api.Errorf(api.CodeBadEvent, "event %d: %v", applied, err), applied)
}

// handleSpec serves the session's specification as XML — what a
// follower needs (together with the stats' labeling configuration) to
// rebuild the session locally before replaying its WAL.
func handleSpec(s *Session, w http.ResponseWriter) {
	w.Header().Set("Content-Type", api.ContentTypeXML)
	_ = wfxml.EncodeSpec(w, s.Grammar().Spec())
}

// handleWALTail streams the session's committed WAL as tail entries
// (sequence number + raw frame; see internal/api). ?from= selects the
// first sequence wanted (default 1); ?wait=false returns the
// committed history and ends, while the default live-tails: the
// response stays open and new entries flow as batches commit, until
// the client disconnects or the log closes. Stream errors after the
// 200 can only be reported by cutting the stream short — the follower
// treats any truncation as a reconnect signal, so nothing is lost.
func handleWALTail(s *Session, w http.ResponseWriter, r *http.Request) {
	from := int64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n <= 0 {
			writeError(w, api.Errorf(api.CodeBadRequest, "from wants a positive sequence, got %q", q))
			return
		}
		from = n
	}
	wait := true
	if q := r.URL.Query().Get("wait"); q != "" {
		b, err := strconv.ParseBool(q)
		if err != nil {
			writeError(w, api.Errorf(api.CodeBadRequest, "wait wants a boolean, got %q", q))
			return
		}
		wait = b
	}
	tailer, err := s.NewWALTailer(from)
	if err != nil {
		writeError(w, err)
		return
	}
	defer tailer.Close()

	w.Header().Set("Content-Type", api.ContentTypeWAL)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriterSize(w, 64<<10)
	var entry []byte
	for {
		seq, frame, err := tailer.Next(r.Context(), wait)
		if err != nil {
			// io.EOF: caught up (wait=false) or log closed; anything else
			// (context canceled, corruption) also just ends the stream.
			_ = bw.Flush()
			return
		}
		entry = api.AppendTailEntry(entry[:0], seq, frame)
		if _, err := bw.Write(entry); err != nil {
			return // client went away
		}
		if !tailer.Pending() {
			// About to block (or finish): push what we have to the wire so
			// the follower applies it now instead of when the buffer fills.
			if err := bw.Flush(); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// maxIdleReachBytes is the largest body buffer a reachScratch may carry
// back to the free list. A full batch's request fits; what does not is
// the response to a batch made mostly of failures, each with its code
// and message — and with it the failure list that produced it.
const maxIdleReachBytes = 64 << 10

// reachScratch is what the binary arm of handleReachBatch works in:
// buf holds the request body and, once the pairs are decoded out of it,
// the response; bits and fails are the answers in between. All of it is
// the request's own from get to put, and references nothing of it after.
type reachScratch struct {
	buf   []byte
	pairs []api.ReachPair
	bits  api.ReachBits
	fails []api.ReachFailure
}

func (sc *reachScratch) reset() (keep bool) {
	clear(sc.fails) // their messages
	sc.buf, sc.pairs, sc.bits, sc.fails = sc.buf[:0], sc.pairs[:0], sc.bits[:0], sc.fails[:0]
	return cap(sc.buf) <= maxIdleReachBytes
}

// handleReachBatch answers a batch in the form it was asked in: a
// ContentTypeReach body gets the binary response, a JSON body (or one
// of no declared type) the JSON one. Request-level errors are the JSON
// ErrorResponse either way. The body is bounded before it is parsed —
// by its declared length where there is one.
func handleReachBatch(s *Session, free *scratchList[*reachScratch], w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	binary := strings.HasPrefix(ct, api.ContentTypeReach)
	limit := int64(api.MaxReachJSONBytes)
	switch {
	case binary:
		limit = api.MaxReachRequestBytes
	case ct != "" && !strings.HasPrefix(ct, api.ContentTypeJSON):
		writeError(w, api.Errorf(api.CodeBadRequest, "batch reach wants Content-Type %s or %s, got %q", api.ContentTypeReach, api.ContentTypeJSON, ct))
		return
	}
	if r.ContentLength > limit {
		writeError(w, reachBodyTooLarge(limit))
		return
	}
	if binary {
		handleReachBinary(s, free, w, r)
		return
	}
	var req api.BatchReachRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			err = reachBodyTooLarge(limit)
		} else {
			err = api.Errorf(api.CodeBadJSON, "bad JSON body: %v", err)
		}
		writeError(w, err)
		return
	}
	if len(req.Pairs) > api.MaxReachPairs {
		writeError(w, api.Errorf(api.CodeBadRequest, "batch of %d pairs exceeds the %d-pair cap", len(req.Pairs), api.MaxReachPairs))
		return
	}
	writeJSON(w, http.StatusOK, api.BatchReachResponse{Results: s.ReachBatch(req.Pairs)})
}

func reachBodyTooLarge(limit int64) *api.Error {
	return api.Errorf(api.CodeBadRequest, "body exceeds the %d bytes a batch of %d pairs, the cap, can take", limit, api.MaxReachPairs)
}

// handleReachBinary is the ContentTypeReach arm, its length already
// checked against the cap: body, pairs, answers and response all live
// in one scratch from the free list, and the response leaves in one
// write of declared length.
func handleReachBinary(s *Session, free *scratchList[*reachScratch], w http.ResponseWriter, r *http.Request) {
	if r.ContentLength < 0 {
		writeError(w, api.Errorf(api.CodeBadRequest, "a %s body needs a Content-Length", api.ContentTypeReach))
		return
	}
	sc := free.get()
	defer free.put(sc)
	sc.buf = slices.Grow(sc.buf[:0], int(r.ContentLength))[:r.ContentLength]
	if _, err := io.ReadFull(r.Body, sc.buf); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "reading the body: %v", err))
		return
	}
	var err error
	if sc.pairs, err = api.DecodeReachRequestInto(sc.pairs[:0], sc.buf); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	sc.bits, sc.fails = s.ReachBatchInto(sc.bits, sc.fails[:0], sc.pairs)
	sc.buf = api.AppendReachResponse(sc.buf[:0], len(sc.pairs), sc.bits, sc.fails)
	h := w.Header()
	h.Set("Content-Type", api.ContentTypeReach)
	h.Set("Content-Length", strconv.Itoa(len(sc.buf)))
	_, _ = w.Write(sc.buf) // a failed write is a client gone; nothing to report to
}

func handleLineage(s *Session, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	of, perr := parseVertex(q.Get("of"))
	if perr != nil {
		writeError(w, api.Errorf(api.CodeBadVertex, "lineage wants a numeric of query param"))
		return
	}
	cursor, limitStr := q.Get("cursor"), q.Get("limit")
	limit := api.DefaultLineageLimit
	if limitStr != "" {
		n, err := strconv.Atoi(limitStr)
		if err != nil || n <= 0 {
			writeError(w, api.Errorf(api.CodeBadRequest, "limit wants a positive integer, got %q", limitStr))
			return
		}
		limit = min(n, api.MaxLineageLimit)
	}
	after := graph.None
	if cursor != "" {
		v, perr := parseVertex(cursor)
		if perr != nil {
			writeError(w, perr.WithDetail("cursor must be a vertex id from next_cursor"))
			return
		}
		after = v
	}
	page, more, err := s.LineagePage(of, after, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, lineageResponse(of, page, more))
}

func lineageResponse(of graph.VertexID, anc []graph.VertexID, more bool) api.LineageResponse {
	resp := api.LineageResponse{Of: int32(of), Ancestors: make([]int32, 0, len(anc))}
	for _, v := range anc {
		resp.Ancestors = append(resp.Ancestors, int32(v))
	}
	if more && len(anc) > 0 {
		resp.NextCursor = strconv.Itoa(int(anc[len(anc)-1]))
	}
	return resp
}

func parseVertex(s string) (graph.VertexID, *api.Error) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return graph.None, api.Errorf(api.CodeBadVertex, "vertex id %q is not an integer", s)
	}
	if n < 0 {
		return graph.None, api.Errorf(api.CodeBadVertex, "negative vertex id %d", n)
	}
	return graph.VertexID(n), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// toAPIError maps any handler error onto the structured model: typed
// errors pass through, a poisoned durable session is
// CodeSessionPoisoned, anything else is the client's bad request.
func toAPIError(err error) *api.Error {
	if errors.Is(err, ErrDurability) {
		return &api.Error{Code: api.CodeSessionPoisoned, Message: err.Error()}
	}
	return api.AsError(err, api.CodeBadRequest)
}

func writeError(w http.ResponseWriter, err error) {
	ae := toAPIError(err)
	writeJSON(w, ae.Code.HTTPStatus(), api.ErrorResponse{Err: ae})
}

func writeErrorApplied(w http.ResponseWriter, err error, applied int) {
	ae := toAPIError(err)
	writeJSON(w, ae.Code.HTTPStatus(), api.ErrorResponse{Err: ae, Applied: applied})
}
