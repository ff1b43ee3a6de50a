package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

func commitRecord(i int) Record {
	return RefRecord(run.Event{
		V:     graph.VertexID(i),
		Ref:   spec.VertexRef{Graph: 0, V: graph.VertexID(i % 7)},
		Preds: []graph.VertexID{graph.VertexID(i / 2)},
	})
}

// TestCommitterGroupCommit drives several logs through one committer
// from concurrent batch goroutines (appends serialized per log, as the
// service guarantees) and checks every acknowledged record is on disk.
func TestCommitterGroupCommit(t *testing.T) {
	const (
		logs    = 4
		batches = 25
		perB    = 8
	)
	dir := t.TempDir()
	c := NewCommitter()
	var wg sync.WaitGroup
	paths := make([]string, logs)
	for li := 0; li < logs; li++ {
		paths[li] = filepath.Join(dir, fmt.Sprintf("l%d.wal", li))
		l, err := Open(paths[li], 0, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// One goroutine appends per log, but commits overlap
				// across logs — the committer coalesces them.
				for e := 0; e < perB; e++ {
					if err := logRecord(l, commitRecord(b*perB+e)); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
				if err := c.Commit(l, l.AppendSeq()); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(l)
	}
	wg.Wait()

	for li, path := range paths {
		n, _, err := Scan(path, func(i int, rec Record) error {
			if rec.Ref.V != graph.VertexID(i) {
				return fmt.Errorf("log %d record %d holds vertex %d", li, i, rec.Ref.V)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != batches*perB {
			t.Fatalf("log %d holds %d records, want %d", li, n, batches*perB)
		}
	}
}

// TestCommitterConcurrentSameLog models queued batches on one session:
// many goroutines commit different sequences of the same log; all must
// return only after their prefix is durable.
func TestCommitterConcurrentSameLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "x.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewCommitter()

	const rounds = 200
	var mu sync.Mutex // stands in for the session's ingest lock
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				if err := logRecord(l, commitRecord(i)); err != nil {
					mu.Unlock()
					t.Errorf("append: %v", err)
					return
				}
				seq := l.AppendSeq()
				mu.Unlock()
				if err := c.Commit(l, seq); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n, _, err := Scan(filepath.Join(dir, "x.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*rounds {
		t.Fatalf("%d records on disk, want %d", n, 8*rounds)
	}
}

// TestCommitterClosedLogPoisons checks a commit against a closed log
// fails, and keeps failing (the error is sticky), while other logs on
// the same committer stay healthy.
func TestCommitterClosedLogPoisons(t *testing.T) {
	dir := t.TempDir()
	bad, err := Open(filepath.Join(dir, "bad.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Open(filepath.Join(dir, "good.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	c := NewCommitter()

	if err := logRecord(bad, commitRecord(1)); err != nil {
		t.Fatal(err)
	}
	seq := bad.AppendSeq()
	if err := bad.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushed the appended record, so its sequence is already
	// durable and commits without touching the closed file …
	if err := c.Commit(bad, seq); err != nil {
		t.Fatalf("already-durable sequence failed on a closed log: %v", err)
	}
	// … but a sequence beyond the durable prefix needs a flush, which a
	// closed log cannot deliver: the commit fails and poisons the log,
	// stickily — even for sequences that were durable.
	if err := c.Commit(bad, seq+1); err == nil {
		t.Fatal("commit past the durable prefix of a closed log succeeded")
	}
	if err := c.Commit(bad, seq); err == nil {
		t.Fatal("poisoned log committed on retry")
	}

	if err := logRecord(good, commitRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(good, good.AppendSeq()); err != nil {
		t.Fatalf("healthy log failed alongside a poisoned one: %v", err)
	}
	// An already-durable sequence returns without touching the disk.
	if err := c.Commit(good, good.AppendSeq()); err != nil {
		t.Fatal(err)
	}
}
