package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/run"
	"wfreach/internal/wal"
)

// tailStream encodes events as the tail stream a source would ship,
// sequences starting at first.
func tailStream(t *testing.T, first int64, events []run.Event) []byte {
	t.Helper()
	var out, frame []byte
	for i, ev := range events {
		var err error
		if frame, err = wal.AppendFrame(frame[:0], wal.RefRecord(ev)); err != nil {
			t.Fatal(err)
		}
		out = api.AppendTailEntry(out, first+int64(i), frame)
	}
	return out
}

// TestApplyTail drives the applier a follower and a move target share
// through the ways a tail can end — cleanly, on a sequence gap, on a
// record the labeler rejects in the middle of a batch, and on a stream
// cut inside an entry — and pins what both callers rely on: the count
// returned is exactly how far the local copy (its vertices, its own
// log) advanced, the hook saw every whole batch and nothing else, only
// a refused record is ErrTailRejected, and a redial from next+n picks
// up where the tail stopped.
func TestApplyTail(t *testing.T) {
	g := compileBuiltin(t, "RunningExample")
	events, _ := genEvents(t, g, 700, 4)
	const batch = tailBatch
	total := int64(len(events))
	if total <= 2*batch {
		t.Fatalf("%d events make fewer than three batches", total)
	}

	dup := append([]run.Event(nil), events...)
	dup[301] = events[300] // the labeler has placed this vertex already
	full := tailStream(t, 1, events)

	for _, tc := range []struct {
		name     string
		stream   []byte
		applied  int64 // records that go in
		batches  int   // whole batches the hook sees
		rejected bool  // the error is ErrTailRejected
		clean    bool  // no error at all
	}{
		{name: "clean end", stream: full, applied: total, batches: int(total+batch-1) / batch, clean: true},
		{name: "sequence gap", stream: append(tailStream(t, 1, events[:300]), tailStream(t, 302, events[301:])...), applied: 300, batches: 2},
		{name: "rejection mid-batch", stream: tailStream(t, 1, dup), applied: 301, batches: 1, rejected: true},
		{name: "stream cut", stream: full[:len(tailStream(t, 1, events[:300]))+11], applied: 300, batches: 2},
	} {
		reg := durableReg(t, t.TempDir(), DurableOptions{SnapshotEvery: -1})
		s, err := reg.Create("copy", g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var lasts []int64
		n, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(tc.stream)), 1, func(last int64) error {
			lasts = append(lasts, last)
			return nil
		})
		if n != tc.applied || s.Vertices() != n || s.WALSeq() != n {
			t.Errorf("%s: applied %d (vertices %d, own log %d), want %d", tc.name, n, s.Vertices(), s.WALSeq(), tc.applied)
		}
		if (err == nil) != tc.clean || errors.Is(err, ErrTailRejected) != tc.rejected {
			t.Errorf("%s: err = %v (clean %v, rejected %v)", tc.name, err, tc.clean, tc.rejected)
		}
		// Whole batches only: the last sequence the hook was told trails
		// n exactly when a batch was stopped midway.
		var told int64
		if len(lasts) > 0 {
			told = lasts[len(lasts)-1]
		}
		if len(lasts) != tc.batches || (!tc.rejected && told != n) || (tc.rejected && told != n/batch*batch) {
			t.Errorf("%s: hook saw batches ending at %v, applied %d", tc.name, lasts, n)
		}
		if !tc.clean && !tc.rejected {
			// The redial: the rest of the stream from next+n goes in.
			m, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(tailStream(t, 1+n, events[n:]))), 1+n, nil)
			if err != nil || n+m != total || s.Vertices() != total {
				t.Errorf("%s: redial from %d applied %d (%v), session holds %d of %d", tc.name, 1+n, m, err, s.Vertices(), total)
			}
		}
		reg.Close()
	}

	// Batch frames of more records than tailBatch: each goes in whole,
	// batches end on frame boundaries, and the copy's own log is the
	// shipped frames byte for byte.
	const per = tailBatch + 44
	var stream, shipped []byte
	for lo := 0; lo < len(events); lo += per {
		var frame []byte
		var err error
		open := -1
		for _, ev := range events[lo:min(lo+per, len(events))] {
			if frame, open, err = wal.AppendRecord(frame, open, wal.RefRecord(ev)); err != nil {
				t.Fatal(err)
			}
		}
		stream = api.AppendTailEntry(stream, int64(lo)+1, frame)
		shipped = append(shipped, frame...)
	}
	dir := t.TempDir()
	breg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
	bs, err := breg.Create("copy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lasts []int64
	n, err := bs.ApplyTail(api.NewTailReader(bytes.NewReader(stream)), 1, func(last int64) error {
		lasts = append(lasts, last)
		return nil
	})
	if err != nil || n != total {
		t.Fatalf("batch frames: applied %d of %d, %v", n, total, err)
	}
	for _, last := range lasts {
		if last%per != 0 && last != total {
			t.Fatalf("batch frames: a batch ends at seq %d, inside a frame of %d", last, per)
		}
	}
	if err := breg.Close(); err != nil {
		t.Fatal(err)
	}
	if logged, err := os.ReadFile(filepath.Join(dir, "copy", walFile)); err != nil || !bytes.Equal(logged, shipped) {
		t.Fatalf("the copy's log (%d bytes) is not the shipped frames (%d bytes)", len(logged), len(shipped))
	}

	// The hook's error ends the tail (a follower's chain mismatch).
	reg := durableReg(t, t.TempDir(), DurableOptions{SnapshotEvery: -1})
	s, err := reg.Create("copy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	if n, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(full)), 1, func(int64) error { return stop }); n != batch || !errors.Is(err, stop) {
		t.Fatalf("hook error: applied %d, err %v", n, err)
	}
}
