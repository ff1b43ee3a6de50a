package service

import (
	"testing"

	"wfreach/internal/run"
	"wfreach/internal/spec"
)

// DisableChain turns off the session's WAL hash chain. Test-and-bench
// only: the chained/unchained pair of ingest benchmarks uses it to
// price tamper evidence on the hot path.
func DisableChain(s *Session) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.wal != nil {
		s.wal.DisableChain()
	}
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
