//go:build !race

package wal

import (
	"path/filepath"
	"slices"
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

// TestChainAllocatesNothing: the log's chain is one running digest with
// no pending buffer, so appending frames of any size — or all of them
// as one run in one AppendRaw, which advances the sequence by the
// records of every frame — and finalizing the head after each
// allocates nothing once the log is open.
func TestChainAllocatesNothing(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "x.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var frames [][]byte
	for k := 1; k <= 64; k *= 4 {
		var frame []byte
		open := -1
		for i := range k {
			if frame, open, err = AppendRecord(frame, open, commitRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		frames = append(frames, frame)
	}
	records := []int64{1, 4, 16, 64, 1 + 4 + 16 + 64}
	frames = append(frames, slices.Concat(frames...))
	i := 0
	if n := testing.AllocsPerRun(400, func() {
		before := l.AppendSeq()
		if err := l.AppendRaw(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		if seq, _, ok := l.ChainHead(); !ok || seq-before != records[i%len(frames)] {
			t.Fatalf("input %d advanced the chained sequence by %d (chain %v), want %d", i%len(frames), seq-before, ok, records[i%len(frames)])
		}
		i++
	}); n != 0 {
		t.Fatalf("AppendRaw and ChainHead: %v allocations per input, want 0", n)
	}
}

// TestDecodeRecordAllocs: a record with predecessors costs the one
// slice it owns, a reused arena nothing.
func TestDecodeRecordAllocs(t *testing.T) {
	payload := refPayload(9, 1, 2, 3, 4, 5)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecordInto(nil, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("a decode into a fresh arena: %v allocations, want 1", n)
	}
	arena := make([]graph.VertexID, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		arena = arena[:0]
		if _, err := decodeRecordInto(&arena, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a decode into a warm arena: %v allocations, want 0", n)
	}
}
