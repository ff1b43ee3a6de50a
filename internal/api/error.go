package api

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrorCode is a machine-readable error class. Codes are part of the
// wire contract: clients dispatch on them (via errors.As on *Error),
// so a code, once shipped, never changes meaning.
type ErrorCode string

const (
	// CodeBadRequest is a malformed or inconsistent request that no
	// more specific code covers.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeBadJSON is a request body that does not decode as the
	// endpoint's JSON type.
	CodeBadJSON ErrorCode = "bad_json"
	// CodeBadVertex is a vertex parameter that is not a non-negative
	// 32-bit integer.
	CodeBadVertex ErrorCode = "bad_vertex"
	// CodeBadEvent is an ingest event that is malformed or rejected by
	// the labeler (duplicate vertex, unknown predecessor, …). The
	// message names the failing event's index in the submitted batch.
	CodeBadEvent ErrorCode = "bad_event"
	// CodeBadFrame is a binary ingest stream with a truncated,
	// oversized or checksum-mismatched frame.
	CodeBadFrame ErrorCode = "bad_frame"
	// CodeBadSpec is a specification that does not parse or compile.
	CodeBadSpec ErrorCode = "bad_spec"
	// CodeUnknownBuiltin is a create request naming no built-in
	// specification.
	CodeUnknownBuiltin ErrorCode = "unknown_builtin"
	// CodeSessionNotFound is a request against a session name that is
	// not open.
	CodeSessionNotFound ErrorCode = "session_not_found"
	// CodeSessionExists is a create request for a name already in use
	// (including leftover on-disk data under that name).
	CodeSessionExists ErrorCode = "session_exists"
	// CodeVertexNotLabeled is a query for a vertex the session has not
	// labeled yet; the caller cannot distinguish "not reachable" from
	// "not yet executed", so the right reaction is usually to retry.
	CodeVertexNotLabeled ErrorCode = "vertex_not_labeled"
	// CodeSessionPoisoned is a durable session whose write-ahead log
	// failed (or was closed); it refuses further ingest while queries
	// keep working.
	CodeSessionPoisoned ErrorCode = "session_poisoned"
	// CodeReadOnly is a write (create, delete, ingest) sent to a
	// follower replica. The error detail carries the primary's base
	// URL, Location-style — resend the write there (the Go SDK does so
	// automatically; see PrimaryFromError).
	CodeReadOnly ErrorCode = "read_only"
	// CodeNotFollower is a replication operation on a server that is
	// not a follower. Promote no longer sends it (promoting a writable
	// server is an idempotent no-op); the code is retained for clients
	// compiled against older servers.
	CodeNotFollower ErrorCode = "not_follower"
	// CodeWrongNode is a session request sent to a cluster node that
	// does not own the session's placement. The error detail carries
	// the owning node's base URL — resend the request there (the Go
	// SDK's cluster client does so automatically; see OwnerFromError).
	// It differs from CodeReadOnly in that the receiving node has no
	// copy of the session at all, so not even reads can be served.
	CodeWrongNode ErrorCode = "wrong_node"
	// CodeNotClustered is a cluster operation (map, health, move) on a
	// server that is not running in cluster mode.
	CodeNotClustered ErrorCode = "not_clustered"
	// CodeNotDurable is a WAL tail request against a session that has
	// no write-ahead log to ship (a memory-only session, or one whose
	// log failed); there is nothing a replica could replay. A cluster
	// release of a session with no hash chain at its sealed sequence
	// answers it too: a move of it could never be verified.
	CodeNotDurable ErrorCode = "not_durable"
	// CodeMethodNotAllowed is a known path hit with the wrong HTTP
	// method; the response carries an Allow header.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeNotFound is an unknown path.
	CodeNotFound ErrorCode = "not_found"
	// CodeInternal is a server-side failure that is not the client's
	// fault.
	CodeInternal ErrorCode = "internal"
	// CodeUnknown marks a response a client could not map to the
	// structured model (non-JSON error body, proxy page, …). Servers
	// never send it.
	CodeUnknown ErrorCode = "unknown"
)

// HTTPStatus maps the code to its response status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeSessionNotFound, CodeVertexNotLabeled, CodeNotFound:
		return http.StatusNotFound
	case CodeSessionExists, CodeNotFollower, CodeNotClustered:
		return http.StatusConflict
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeReadOnly, CodeWrongNode:
		// The request was sent to the wrong server, not malformed; 421
		// also keeps write-redirect handling out of generic 4xx/5xx
		// retry logic.
		return http.StatusMisdirectedRequest
	case CodeSessionPoisoned, CodeInternal, CodeUnknown:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Error is the structured error model of the /v1 surface. The server
// sends it as the "error" member of ErrorResponse; the client SDK
// rebuilds it from the response, so callers can dispatch with
//
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == api.CodeSessionNotFound { … }
type Error struct {
	// Code is the machine-readable error class.
	Code ErrorCode `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Detail optionally carries extra context (the offending value,
	// the acceptable alternatives, …).
	Detail string `json:"detail,omitempty"`
	// HTTPStatus is the response status the error traveled with. It is
	// not serialized: the client fills it in from the response, the
	// server derives it from Code.
	HTTPStatus int `json:"-"`
	// Applied is the partial-ingest progress the error traveled with
	// (ErrorResponse.Applied): events durably applied before the
	// failure. Like HTTPStatus it is client-side enrichment, filled in
	// from the response envelope; zero everywhere else.
	Applied int `json:"-"`
}

// Error renders "code: message" (plus the detail when present).
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an Error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithDetail returns a copy of the error carrying the detail string.
func (e *Error) WithDetail(format string, args ...any) *Error {
	cp := *e
	cp.Detail = fmt.Sprintf(format, args...)
	return &cp
}

// AsError coerces any error into the structured model: a *Error
// (possibly wrapped) is returned as-is, anything else is wrapped
// under the fallback code with the original message.
func AsError(err error, fallback ErrorCode) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	return &Error{Code: fallback, Message: err.Error()}
}

// PrimaryFromError extracts the primary's base URL from a follower's
// read-only rejection: a *Error (possibly wrapped) with CodeReadOnly
// whose detail carries the address. It is how a client discovers
// where to redirect a misdirected write.
func PrimaryFromError(err error) (string, bool) {
	var ae *Error
	if errors.As(err, &ae) && ae.Code == CodeReadOnly && ae.Detail != "" {
		return ae.Detail, true
	}
	return "", false
}

// OwnerFromError extracts the owning node's base URL from a cluster
// node's misdirected-session rejection: a *Error (possibly wrapped)
// with CodeWrongNode whose detail carries the address. Together with
// PrimaryFromError it is how a routing client chases a session to
// where it actually lives.
func OwnerFromError(err error) (string, bool) {
	var ae *Error
	if errors.As(err, &ae) && ae.Code == CodeWrongNode && ae.Detail != "" {
		return ae.Detail, true
	}
	return "", false
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Err is the structured error, serialized as "error".
	Err *Error `json:"error"`
	// Applied is set on partial ingest batches: the number of events
	// durably applied before the failure.
	Applied int `json:"applied,omitempty"`
}
