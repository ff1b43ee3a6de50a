package service

import (
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// AppendNamed ingests a batch of name-identified events (the Section
// 5.3 naming-restriction setting), with Append's pipeline,
// partial-batch and durability semantics.
func (s *Session) AppendNamed(events []core.NamedEvent) (int, error) {
	return appendBatch(s, events, wal.NamedRecord, nil)
}

// Reach answers v ;* w as one request to the store — Enter, read,
// Leave; on a session Registry.Delete has retired it is refused with
// CodeSessionNotFound.
func (s *Session) Reach(v, w graph.VertexID) (bool, error) {
	if !s.store.Enter() {
		return false, s.deleted()
	}
	defer s.store.Leave()
	return s.reach(v, w)
}

// ForEachReachCase hands each case of the batch-reach corpus — BioAID,
// the agent grammar, random linear and nonlinear grammars — to a test
// outside the package.
func ForEachReachCase(t *testing.T, fn func(name string, g *spec.Grammar, events []run.Event, r *run.Run)) {
	for _, c := range reachCorpus(t) {
		fn(c.name, c.g, c.events, c.r)
	}
}

// StoreBytes is storeBytes for a test outside the package.
func StoreBytes(s *Session) map[int32][]byte { return storeBytes(s) }

// SealedTo is the base URL Seal named, or "" while the session is open
// to ingest.
func (s *Session) SealedTo() string {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.sealed
}
