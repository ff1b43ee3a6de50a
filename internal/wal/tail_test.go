package wal

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wfreach/internal/core"
	"wfreach/internal/graph"
)

func tailRecord(v int) Record {
	return NamedRecord(core.NamedEvent{V: graph.VertexID(v), Name: "m", Preds: []graph.VertexID{graph.VertexID(v / 2)}})
}

// TestDurableSeq checks the committed sequence is exposed atomically
// and only advances on flush — appends alone stay invisible.
func TestDurableSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("fresh log DurableSeq = %d", got)
	}
	for i := 1; i <= 3; i++ {
		if err := logRecord(l, tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("unflushed appends visible: DurableSeq = %d", got)
	}
	if got := l.AppendSeq(); got != 3 {
		t.Fatalf("AppendSeq = %d, want 3", got)
	}
	ch := l.DurableAdvanced()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableSeq(); got != 3 {
		t.Fatalf("after Flush DurableSeq = %d, want 3", got)
	}
	select {
	case <-ch:
	default:
		t.Fatal("DurableAdvanced channel not closed by Flush")
	}
}

// TestOpenSeedsSequence checks Open resumes the absolute numbering at
// the record count a prior Scan reported, so sequences are
// restart-stable.
func TestOpenSeedsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := logRecord(l, tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n, size, err := Scan(path, nil)
	if err != nil || n != 4 {
		t.Fatalf("scan: %d records, err %v", n, err)
	}
	l2, err := Open(path, size, int64(n), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.AppendSeq() != 4 || l2.DurableSeq() != 4 {
		t.Fatalf("reopened log seqs = %d/%d, want 4/4", l2.AppendSeq(), l2.DurableSeq())
	}
	if err := logRecord(l2, tailRecord(5)); err != nil {
		t.Fatal(err)
	}
	if got := l2.AppendSeq(); got != 5 {
		t.Fatalf("append after reopen got seq %d, want 5", got)
	}
}

// TestTailerHistoryThenLive checks a tailer serves the committed
// history byte-for-byte, then blocks and picks up records as they
// commit, and ends with io.EOF when the log closes.
func TestTailerHistoryThenLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	appendOne := func(i int) {
		rec := tailRecord(i)
		frame, err := AppendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame)
		if err := logRecord(l, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		appendOne(i)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ctx := context.Background()

	// History: all ten, in order, identical bytes.
	for i := 0; i < 10; i++ {
		seq, frame, err := tl.Next(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i+1) || !bytes.Equal(frame, want[i]) {
			t.Fatalf("record %d: seq %d, frames equal %v", i, seq, bytes.Equal(frame, want[i]))
		}
	}
	if tl.Pending() {
		t.Fatal("caught-up tailer claims pending records")
	}

	// Live: commit two more while the tailer waits.
	go func() {
		time.Sleep(10 * time.Millisecond)
		appendOne(11)
		appendOne(12)
		_ = l.Flush()
		time.Sleep(10 * time.Millisecond)
		_ = l.Close()
	}()
	for i := 10; i < 12; i++ {
		seq, frame, err := tl.Next(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i+1) || !bytes.Equal(frame, want[i]) {
			t.Fatalf("live record %d: seq %d", i, seq)
		}
	}
	if _, _, err := tl.Next(ctx, true); !errors.Is(err, io.EOF) {
		t.Fatalf("tail past a closed log = %v, want EOF", err)
	}

	// The delivered frames really are the log's decoded records.
	var recs []Record
	if _, _, err := Scan(path, func(_ int, r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	dec := make([]Record, 0, len(want))
	for _, frame := range want {
		r, err := decodeRecordInto(nil, frame[FrameHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		dec = append(dec, r)
	}
	if !reflect.DeepEqual(recs, dec) {
		t.Fatal("shipped frames diverge from the log's records")
	}
}

// TestTailerFromAndNoWait checks the start-sequence skip (including a
// start past the committed end) and the non-waiting catch-up mode.
func TestTailerFromAndNoWait(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 6; i++ {
		if err := logRecord(l, tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	tl, err := NewTailer(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	var got []int64
	for {
		seq, _, err := tl.Next(ctx, false)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seq)
	}
	if !reflect.DeepEqual(got, []int64{4, 5, 6}) {
		t.Fatalf("from=4 delivered %v", got)
	}

	// A start past the end: nothing without wait, delivery once the
	// log commits that far.
	future, err := NewTailer(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer future.Close()
	if _, _, err := future.Next(ctx, false); !errors.Is(err, io.EOF) {
		t.Fatalf("future start without wait = %v, want EOF", err)
	}
	go func() {
		for i := 7; i <= 8; i++ {
			_ = logRecord(l, tailRecord(i))
		}
		_ = l.Flush()
	}()
	seq, _, err := future.Next(ctx, true)
	if err != nil || seq != 8 {
		t.Fatalf("future start delivered seq %d, err %v, want 8", seq, err)
	}

	if _, err := NewTailer(l, 0); err == nil {
		t.Fatal("non-positive start sequence accepted")
	}
}

// TestTailerContext checks a waiting tailer honors cancellation.
func TestTailerContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := tl.Next(ctx, true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled wait = %v", err)
	}
}

// TestTailerCommitterWakeup checks the Committer's group-commit path
// wakes tailers too (it advances durability through the same hook).
func TestTailerCommitterWakeup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	c := NewCommitter()
	go func() {
		time.Sleep(5 * time.Millisecond)
		_ = logRecord(l, tailRecord(1))
		_ = c.Commit(l, l.AppendSeq())
	}()
	seq, _, err := tl.Next(context.Background(), true)
	if err != nil || seq != 1 {
		t.Fatalf("committer-driven delivery: seq %d, err %v", seq, err)
	}
}

// TestTailerCorruptionBelowWatermark: damage below the committed
// watermark is a hard error, not a silent truncation.
func TestTailerCorruptionBelowWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 2; i++ {
		if err := logRecord(l, tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk behind the log's back.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[FrameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The tailer positions itself on open, so it may meet the damage
	// there rather than in Next; either way it is ErrCorrupt.
	tl, err := NewTailer(l, 1)
	if err == nil {
		defer tl.Close()
		_, _, err = tl.Next(context.Background(), false)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt committed record = %v, want ErrCorrupt", err)
	}
}

// batchFrame frames tailRecord(from) … tailRecord(to) as one frame.
func batchFrame(t *testing.T, from, to int) []byte {
	t.Helper()
	var frame []byte
	open := -1
	for v := from; v <= to; v++ {
		var err error
		if frame, open, err = AppendRecord(frame, open, tailRecord(v)); err != nil {
			t.Fatal(err)
		}
	}
	return frame
}

// TestTailerServesBatchFrames: a tailer ships whole frames, each with
// the sequence of its first record, starts only on a frame boundary —
// a start inside a committed frame is ErrMidFrame when the tailer
// opens, and inside a frame committed later when Next reaches it — and
// waits at the committed end for the next frame.
func TestTailerServesBatchFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frames := [][]byte{batchFrame(t, 1, 3), batchFrame(t, 4, 7), batchFrame(t, 8, 9)}
	for _, f := range frames {
		if err := l.AppendRaw(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != 9 {
		t.Fatalf("three frames of 9 records: durable seq %d", l.DurableSeq())
	}
	ctx := context.Background()
	for _, tc := range []struct {
		from  int64
		seqs  []int64
		first int // index in frames of the first frame served
	}{{1, []int64{1, 4, 8}, 0}, {4, []int64{4, 8}, 1}, {8, []int64{8}, 2}} {
		tl, err := NewTailer(l, tc.from)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.seqs {
			seq, frame, err := tl.Next(ctx, false)
			if err != nil || seq != want || !bytes.Equal(frame, frames[tc.first+i]) {
				t.Fatalf("from %d: entry %d is seq %d (%v), want %d", tc.from, i, seq, err, want)
			}
		}
		if _, _, err := tl.Next(ctx, false); err != io.EOF {
			t.Fatalf("from %d: past the end = %v, want EOF", tc.from, err)
		}
		tl.Close()
	}
	for _, from := range []int64{2, 5, 9} {
		if _, err := NewTailer(l, from); !errors.Is(err, ErrMidFrame) {
			t.Fatalf("tail from %d, inside a frame = %v, want ErrMidFrame", from, err)
		}
	}
	// Past the committed end: 10 is where the next frame starts, 11
	// falls inside it.
	at, inside := mustTailer(t, l, 10), mustTailer(t, l, 11)
	defer at.Close()
	defer inside.Close()
	next := batchFrame(t, 10, 12)
	if err := l.AppendRaw(next); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if seq, frame, err := at.Next(ctx, true); err != nil || seq != 10 || !bytes.Equal(frame, next) {
		t.Fatalf("tail from 10: seq %d, %v", seq, err)
	}
	if _, _, err := inside.Next(ctx, true); !errors.Is(err, ErrMidFrame) {
		t.Fatalf("tail from 11 over a frame of 10–12 = %v, want ErrMidFrame", err)
	}
}

func mustTailer(t *testing.T, l *Log, from int64) *Tailer {
	t.Helper()
	tl, err := NewTailer(l, from)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}
