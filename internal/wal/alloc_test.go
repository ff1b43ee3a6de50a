//go:build !race

package wal

import (
	"path/filepath"
	"testing"

	"wfreach/internal/graph"
)

// TestCommitAllocatesNothing: a commit round on one log — a session
// acknowledging a batch while no other session commits — is flushed
// inline, out of the committer's reused maps and results, and allocates
// nothing once they have grown. Appending the frame (hash chain on, as
// a session's log has it) allocates nothing either.
func TestCommitAllocatesNothing(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "x.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frame, err := AppendFrame(nil, commitRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter()
	round := func() {
		if err := l.AppendRaw(frame); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(l, l.AppendSeq()); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("append and commit on one log: %v allocations per round, want 0", n)
	}
	if got := l.DurableSeq(); got != l.AppendSeq() {
		t.Fatalf("durable sequence %d after committing through %d", got, l.AppendSeq())
	}
}

// TestDecodeRecordAllocs: a record with predecessors costs the one
// slice it owns, a reused arena nothing.
func TestDecodeRecordAllocs(t *testing.T) {
	payload := refPayload(9, 1, 2, 3, 4, 5)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeRecord: %v allocations, want 1", n)
	}
	arena := make([]graph.VertexID, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		arena = arena[:0]
		if _, err := DecodeRecordInto(&arena, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeRecordInto a warm arena: %v allocations, want 0", n)
	}
}
