package service

import (
	"bytes"
	"errors"
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
	events, _ := genEvents(t, g, 60, 4)
	const batch = 8
	total := int64(len(events))

	dup := append([]run.Event(nil), events...)
	dup[21] = events[20] // the labeler has placed this vertex already
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
		{name: "sequence gap", stream: append(tailStream(t, 1, events[:10]), tailStream(t, 12, events[11:])...), applied: 10, batches: 2},
		{name: "rejection mid-batch", stream: tailStream(t, 1, dup), applied: 21, batches: 2, rejected: true},
		{name: "stream cut", stream: full[:len(tailStream(t, 1, events[:13]))+11], applied: 13, batches: 2},
	} {
		reg := durableReg(t, t.TempDir(), DurableOptions{SnapshotEvery: -1})
		s, err := reg.Create("copy", g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var lasts []int64
		var framed int
		n, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(tc.stream)), 1, batch, func(last int64, frames [][]byte) error {
			lasts = append(lasts, last)
			framed += len(frames)
			return nil
		})
		if n != tc.applied || s.Vertices() != n || s.WALSeq() != n {
			t.Errorf("%s: applied %d (vertices %d, own log %d), want %d", tc.name, n, s.Vertices(), s.WALSeq(), tc.applied)
		}
		if (err == nil) != tc.clean || errors.Is(err, ErrTailRejected) != tc.rejected {
			t.Errorf("%s: err = %v (clean %v, rejected %v)", tc.name, err, tc.clean, tc.rejected)
		}
		// Whole batches only: the hook's frames add up to the last
		// sequence it was told, which trails n exactly when a batch was
		// stopped midway.
		if len(lasts) != tc.batches || (len(lasts) > 0 && int64(framed) != lasts[len(lasts)-1]) ||
			(!tc.rejected && int64(framed) != n) || (tc.rejected && int64(framed) != n/batch*batch) {
			t.Errorf("%s: hook saw batches ending at %v over %d frames, applied %d", tc.name, lasts, framed, n)
		}
		if !tc.clean && !tc.rejected {
			// The redial: the rest of the stream from next+n goes in.
			m, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(tailStream(t, 1+n, events[n:]))), 1+n, batch, nil)
			if err != nil || n+m != total || s.Vertices() != total {
				t.Errorf("%s: redial from %d applied %d (%v), session holds %d of %d", tc.name, 1+n, m, err, s.Vertices(), total)
			}
		}
		reg.Close()
	}

	// The hook's error ends the tail (a follower's chain mismatch).
	reg := NewRegistry()
	s, err := reg.Create("copy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	if n, err := s.ApplyTail(api.NewTailReader(bytes.NewReader(full)), 1, batch, func(int64, [][]byte) error { return stop }); n != batch || !errors.Is(err, stop) {
		t.Fatalf("hook error: applied %d, err %v", n, err)
	}
}
