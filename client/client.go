// Package client is the Go SDK for the wfserve /v1 HTTP API (the
// concurrent provenance-labeling service; see docs/API.md for the
// wire reference).
//
// A Client is safe for concurrent use. Every method takes a context,
// decodes the server's structured errors into *Error values usable
// with errors.As, and retries transient server failures (5xx, network
// errors) on read-only calls with exponential backoff:
//
//	c := client.New("http://127.0.0.1:8080")
//	stats, err := c.CreateSession(ctx, client.CreateSessionRequest{
//		Name: "run1", Builtin: "BioAID",
//	})
//	var apiErr *client.Error
//	if errors.As(err, &apiErr) && apiErr.Code == client.CodeSessionExists {
//		// reuse the session
//	}
//
// For ingest, Stream sends events over the binary frame format —
// byte-identical to the server's write-ahead-log frame, so a durable
// server logs accepted frames without re-encoding — batching
// automatically by size and, optionally, by flush interval. Reach and
// ReachBatch answer reachability over the batch endpoint, amortizing
// one roundtrip over many pairs; Lineage walks the paginated closure
// scan for arbitrarily large provenance sets.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wfreach/internal/api"
)

// Wire types, re-exported from the contract package (internal/api) so
// external callers can name them.
type (
	// Event is the wire form of one execution event: exactly one of
	// (Graph, Vertex) or Name identifies the executed specification
	// vertex.
	Event = api.Event
	// CreateSessionRequest configures a new session.
	CreateSessionRequest = api.CreateSessionRequest
	// SessionStats is a point-in-time snapshot of one session.
	SessionStats = api.SessionStats
	// SessionIntegrity is a session's tamper-evidence anchors: the
	// WAL hash-chain head and the last snapshot's Merkle root.
	SessionIntegrity = api.SessionIntegrity
	// EventsResponse reports how far an ingest request got.
	EventsResponse = api.EventsResponse
	// ReachPair is one reachability question.
	ReachPair = api.ReachPair
	// ReachAnswer answers one pair; failed pairs carry Code/Error.
	ReachAnswer = api.ReachAnswer
	// LineagePage is one page of a provenance-closure scan.
	LineagePage = api.LineageResponse
	// Error is the service's structured error; retrieve it with
	// errors.As and dispatch on Code.
	Error = api.Error
	// ErrorCode classifies an Error.
	ErrorCode = api.ErrorCode
)

// The error codes a client dispatches on (the full set lives in
// internal/api; these are re-exported verbatim).
const (
	CodeBadRequest       = api.CodeBadRequest
	CodeBadJSON          = api.CodeBadJSON
	CodeBadVertex        = api.CodeBadVertex
	CodeBadEvent         = api.CodeBadEvent
	CodeBadFrame         = api.CodeBadFrame
	CodeBadSpec          = api.CodeBadSpec
	CodeUnknownBuiltin   = api.CodeUnknownBuiltin
	CodeSessionNotFound  = api.CodeSessionNotFound
	CodeSessionExists    = api.CodeSessionExists
	CodeVertexNotLabeled = api.CodeVertexNotLabeled
	CodeSessionPoisoned  = api.CodeSessionPoisoned
	CodeReadOnly         = api.CodeReadOnly
	CodeNotFollower      = api.CodeNotFollower
	CodeNotDurable       = api.CodeNotDurable
	CodeMethodNotAllowed = api.CodeMethodNotAllowed
	CodeNotFound         = api.CodeNotFound
	CodeInternal         = api.CodeInternal
	CodeUnknown          = api.CodeUnknown
)

// apiPrefix is the versioned route prefix every request carries.
const apiPrefix = "/v1"

// Client talks to one wfserve instance.
type Client struct {
	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration
	noRedirect bool
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets how many times a retryable request (read-only, or
// transport-level failure before any byte was processed) is retried
// on 5xx or network error, and the initial backoff, doubled per
// attempt up to the WithMaxBackoff cap. Each sleep is jittered —
// drawn uniformly from the upper half of the scheduled delay — so a
// fleet of clients retrying against a recovering server spreads out
// instead of thundering in lockstep. The default is 2 retries
// starting at 100ms; WithRetry(0, 0) disables retrying.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.retries = retries; c.backoff = backoff }
}

// WithMaxBackoff caps the per-attempt retry delay (the exponential
// schedule stops doubling there). The default cap is 5s; zero or
// negative restores it.
func WithMaxBackoff(max time.Duration) Option {
	return func(c *Client) {
		if max <= 0 {
			max = defaultMaxBackoff
		}
		c.maxBackoff = max
	}
}

// WithoutWriteRedirect disables the follower-aware write redirect.
// By default, a write rejected by a read-only follower (CodeReadOnly,
// with the primary's base URL in the error detail) is re-sent to the
// primary once — safe even for non-idempotent ingest, because the
// follower rejected the write without applying anything. Disable it
// to surface the rejection instead (use PrimaryFromError to route by
// hand).
func WithoutWriteRedirect() Option { return func(c *Client) { c.noRedirect = true } }

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	c := &Client{
		base:       base,
		hc:         &http.Client{Timeout: 30 * time.Second},
		retries:    2,
		backoff:    100 * time.Millisecond,
		maxBackoff: defaultMaxBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one JSON request. body nil means no request body; out nil
// discards the response body. retryable marks requests safe to replay
// (reads; never ingest, which is not idempotent).
func (c *Client) do(ctx context.Context, method, path string, body, out any, retryable bool) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	return c.doJSON(ctx, method, path, api.ContentTypeJSON, raw, out, retryable)
}

// doJSON sends a body of any content type and decodes a JSON response.
func (c *Client) doJSON(ctx context.Context, method, path, contentType string, body []byte, out any, retryable bool) error {
	raw, err := c.doRaw(ctx, method, path, contentType, body, retryable)
	if err != nil {
		return err
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: %s %s: decode response: %w", method, path, err)
		}
	}
	return nil
}

// doRaw runs one request and returns the body of its 2xx response,
// following a follower's write redirect once and retrying transient
// failures when retryable.
func (c *Client) doRaw(ctx context.Context, method, path, contentType string, body []byte, retryable bool) ([]byte, error) {
	base := c.base
	redirected := false
	for attempt := 0; ; attempt++ {
		raw, err := c.once(ctx, base, method, path, contentType, body)
		if err == nil {
			return raw, nil
		}
		if !redirected && !c.noRedirect {
			if primary, ok := api.PrimaryFromError(err); ok {
				// A read-only follower rejected a write without applying
				// anything; re-send it to the primary it named, once.
				base = strings.TrimRight(primary, "/")
				redirected = true
				continue
			}
		}
		if !retryable || attempt >= c.retries || !transient(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(retryDelay(c.backoff, c.maxBackoff, attempt)):
		}
	}
}

// defaultMaxBackoff caps the retry schedule unless WithMaxBackoff
// overrides it.
const defaultMaxBackoff = 5 * time.Second

// retryDelay returns the sleep before retrying attempt (0-based): the
// exponential schedule base<<attempt, capped at max, jittered by
// drawing uniformly from the upper half of the capped delay. The
// jitter is what keeps a fleet of clients — every routing client in a
// cluster retries the same recovering node at once — from hammering
// it in synchronized waves; the half-floor keeps the schedule's
// pacing (a jittered delay is never less than half the scheduled
// one).
func retryDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = defaultMaxBackoff
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand.Int64N(int64(d-half)+1))
	}
	return d
}

// transient reports whether an error is worth retrying: a server-side
// 5xx, or a transport failure that never produced a response.
func transient(err error) bool {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.HTTPStatus >= 500
	}
	return true // transport error
}

// once sends one request and returns the response body: as it came on
// a 2xx, as the structured error it decodes to otherwise.
func (c *Client) once(ctx context.Context, base, method, path, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+apiPrefix+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return nil, decodeError(resp.StatusCode, raw)
	}
	return raw, nil
}

// maxDeclaredBody is the largest Content-Length readBody takes a
// server's word for.
const maxDeclaredBody = 1 << 20

// readBody reads a response body to its end: one allocation when the
// response declares a length, io.ReadAll's doubling when it does not
// (or declares one too large to reserve on trust).
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxDeclaredBody {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, resp.ContentLength)
	_, err := io.ReadFull(resp.Body, raw)
	return raw, err
}

// decodeError rebuilds the server's structured error — including the
// partial-ingest Applied count from the response envelope — so a
// caller can resync after a failed batch. A body that is not in the
// structured shape (a proxy error page, …) becomes CodeUnknown with
// the raw body as message.
func decodeError(status int, raw []byte) *Error {
	var resp api.ErrorResponse
	if err := json.Unmarshal(raw, &resp); err == nil && resp.Err != nil && resp.Err.Code != "" {
		resp.Err.HTTPStatus = status
		resp.Err.Applied = resp.Applied
		return resp.Err
	}
	return &Error{
		Code:       CodeUnknown,
		Message:    fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(raw)),
		HTTPStatus: status,
	}
}

// CreateSession opens a new labeling session and returns its initial
// stats.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (SessionStats, error) {
	var st SessionStats
	err := c.do(ctx, http.MethodPost, "/sessions", req, &st, false)
	return st, err
}

// Sessions lists the open sessions with their stats, sorted by name.
func (c *Client) Sessions(ctx context.Context) ([]SessionStats, error) {
	var resp api.ListSessionsResponse
	if err := c.do(ctx, http.MethodGet, "/sessions", nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// Session returns one session's stats.
func (c *Client) Session(ctx context.Context, name string) (SessionStats, error) {
	var st SessionStats
	err := c.do(ctx, http.MethodGet, "/sessions/"+url.PathEscape(name), nil, &st, true)
	return st, err
}

// Integrity returns the session's tamper-evidence anchors: the hash
// chain head over its WAL at the committed sequence, and — when an
// integrity-stamped snapshot exists — the snapshot's Merkle root and
// watermark. Record the anchors externally to make tampering of the
// server's on-disk history detectable by wfverify. A session with no
// WAL (memory-only, or one whose log failed) answers with a typed
// error carrying CodeNotDurable.
func (c *Client) Integrity(ctx context.Context, session string) (SessionIntegrity, error) {
	var st SessionIntegrity
	err := c.do(ctx, http.MethodGet, "/sessions/"+url.PathEscape(session)+"/integrity", nil, &st, true)
	return st, err
}

// DeleteSession removes a session; on a durable server its on-disk
// data is deleted too.
func (c *Client) DeleteSession(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/sessions/"+url.PathEscape(name), nil, nil, false)
}

// Ingest appends a batch of events over the JSON route, in order,
// returning how far the batch got. For sustained ingest prefer
// Stream, which uses the binary frame format. Ingest is not
// idempotent and is never retried; on a partial failure the typed
// error's Applied field carries how many events the server durably
// applied before stopping.
func (c *Client) Ingest(ctx context.Context, session string, events []Event) (EventsResponse, error) {
	var resp EventsResponse
	err := c.do(ctx, http.MethodPost, "/sessions/"+url.PathEscape(session)+"/events",
		api.EventsRequest{Events: events}, &resp, false)
	return resp, err
}

// IngestFrames appends a batch of events in one binary-frame request
// (what Stream uses per flush).
func (c *Client) IngestFrames(ctx context.Context, session string, events []Event) (EventsResponse, error) {
	buf, err := api.AppendFrames(nil, events)
	if err != nil {
		return EventsResponse{}, err
	}
	return c.ingestRaw(ctx, session, buf)
}

func (c *Client) ingestRaw(ctx context.Context, session string, frames []byte) (EventsResponse, error) {
	var resp EventsResponse
	err := c.doJSON(ctx, http.MethodPost, "/sessions/"+url.PathEscape(session)+"/events",
		api.ContentTypeFrame, frames, &resp, false)
	return resp, err
}

// ReachBatch answers many reachability pairs in one roundtrip, one
// answer per pair in order. Pair-level failures (an unlabeled vertex)
// arrive inline on the answer, not as a call error. The pairs travel in
// the binary batch-reach form (two varints a pair, one bit an answer;
// docs/API.md) — the JSON form of the same route is for curl.
func (c *Client) ReachBatch(ctx context.Context, session string, pairs []ReachPair) ([]ReachAnswer, error) {
	raw, err := c.doRaw(ctx, http.MethodPost, "/sessions/"+url.PathEscape(session)+"/reach",
		api.ContentTypeReach, api.AppendReachRequest(nil, pairs), true)
	if err != nil {
		return nil, err
	}
	answers, err := api.DecodeReachResponseInto(make([]ReachAnswer, 0, len(pairs)), pairs, raw)
	if err != nil {
		return nil, fmt.Errorf("client: reach on %q: %w", session, err)
	}
	return answers, nil
}

// Reach asks whether from reaches to (reflexive). It rides on the
// batch endpoint; ask many pairs at once with ReachBatch to amortize
// the roundtrip.
func (c *Client) Reach(ctx context.Context, session string, from, to int32) (bool, error) {
	answers, err := c.ReachBatch(ctx, session, []ReachPair{{From: from, To: to}})
	if err != nil {
		return false, err
	}
	if answers[0].Code != "" {
		return false, &Error{Code: answers[0].Code, Message: answers[0].Error}
	}
	return answers[0].Reachable, nil
}

// LineagePage fetches one page of the provenance closure of a vertex:
// up to limit ancestors after the cursor (empty cursor starts the
// scan; limit <= 0 uses the server default). The returned page's
// NextCursor resumes the scan; empty means done. A page costs the
// server the labels between its cursor and its last ancestor — the scan
// starts right after the cursor and stops once the page is full — so
// a first page of a large closure is cheap, and walking every page
// visits each label once.
func (c *Client) LineagePage(ctx context.Context, session string, of int32, cursor string, limit int) (LineagePage, error) {
	q := url.Values{"of": {strconv.Itoa(int(of))}}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	} else if cursor == "" {
		// Force pagination even on the first page — a bare ?of= request
		// is the deprecated full scan.
		q.Set("limit", strconv.Itoa(api.DefaultLineageLimit))
	}
	var page LineagePage
	err := c.do(ctx, http.MethodGet,
		"/sessions/"+url.PathEscape(session)+"/lineage?"+q.Encode(), nil, &page, true)
	return page, err
}

// Lineage returns the full provenance closure of a vertex, ascending,
// walking the paginated scan until it is exhausted. It asks for the
// server's maximum page size: every page resumes where the last one
// stopped (see LineagePage), so the page size sets the number of round
// trips, not the server's work.
func (c *Client) Lineage(ctx context.Context, session string, of int32) ([]int32, error) {
	var out []int32
	cursor := ""
	for {
		page, err := c.LineagePage(ctx, session, of, cursor, api.MaxLineageLimit)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Ancestors...)
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}
