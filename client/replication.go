package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"wfreach/internal/api"
)

// Replication wire types, re-exported from the contract package.
type (
	// ReplicationStatus is the server's replication role and
	// per-session progress.
	ReplicationStatus = api.ReplicationStatus
	// SessionReplication is one session's replication state.
	SessionReplication = api.SessionReplication
	// TailEntry is one WAL tail-stream entry: an absolute sequence
	// number plus the raw, CRC-verified WAL frame.
	TailEntry = api.TailEntry
)

// Replication roles (see ReplicationStatus.Role).
const (
	RolePrimary  = api.RolePrimary
	RoleFollower = api.RoleFollower
)

// ReplicationStatus reports the server's replication role and
// per-session WAL progress. On a primary, each session's WALSeq is
// the committed sequence a follower can tail up to; on a follower it
// is the applied sequence — the difference is the session's replica
// lag in events.
func (c *Client) ReplicationStatus(ctx context.Context) (ReplicationStatus, error) {
	var st ReplicationStatus
	err := c.do(ctx, http.MethodGet, "/replication/status", nil, &st, true)
	return st, err
}

// Promote asks a follower to stop tailing its primary, catch up on
// whatever the primary can still serve, and become a writable
// primary. It returns the post-promote replication status. Promote is
// idempotent: on a server that is already writable it changes nothing
// and answers with the current status, so failover tooling can re-POST
// until it gets an answer.
func (c *Client) Promote(ctx context.Context) (ReplicationStatus, error) {
	var st ReplicationStatus
	err := c.do(ctx, http.MethodPost, "/replication/promote", nil, &st, false)
	return st, err
}

// SessionSpec fetches the session's workflow specification as XML —
// with the stats' identity, all a replica needs to rebuild the session
// before replaying its WAL, since every session labels the same way.
func (c *Client) SessionSpec(ctx context.Context, name string) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/sessions/"+url.PathEscape(name)+"/spec", "", nil, true)
}

// get issues one GET whose body the caller streams, and maps a non-2xx
// response to its structured error. untimed strips the overall request
// timeout, for live tails, which legitimately stay open forever.
func (c *Client) get(ctx context.Context, path string, untimed bool) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+apiPrefix+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	hc := c.hc
	if untimed && hc.Timeout != 0 {
		cp := *hc
		cp.Timeout = 0
		hc = &cp
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, decodeError(resp.StatusCode, raw)
	}
	return resp, nil
}

// WALTail is an open WAL tail stream (see Client.TailWAL). Next returns
// the next entry — its Frame is reused by the following call, so
// callers that keep it must copy — io.EOF on a cleanly ended stream,
// and a CodeBadFrame error on a truncated or corrupt one (reconnect and
// resume). Buffered reports whether more of the stream has already
// arrived, the cue that a consumer can keep batching without blocking
// on the network.
type WALTail struct {
	*api.TailReader
	body io.ReadCloser
}

// TailWAL opens a tail of the session's write-ahead log starting at
// sequence from (1 is the first event ever ingested; pass
// lastApplied+1 to resume). With wait the stream is live: it delivers
// the committed history, then blocks and delivers new events as the
// primary commits them, until the context ends, the primary closes
// the log, or the connection drops — a replica reconnects and resumes
// from its last applied sequence. Without wait the stream ends after
// the committed history. The call itself does not retry; tailing a
// session whose log is closed or failed fails with CodeNotDurable.
func (c *Client) TailWAL(ctx context.Context, session string, from int64, wait bool) (*WALTail, error) {
	q := url.Values{"from": {strconv.FormatInt(from, 10)}}
	if !wait {
		q.Set("wait", "false")
	}
	// A live tail must outlive any overall HTTP timeout.
	resp, err := c.get(ctx, "/sessions/"+url.PathEscape(session)+"/wal?"+q.Encode(), wait)
	if err != nil {
		return nil, err
	}
	return &WALTail{TailReader: api.NewTailReader(resp.Body), body: resp.Body}, nil
}

// Close drops the stream.
func (t *WALTail) Close() error { return t.body.Close() }
