package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

func testRecords() []Record {
	return []Record{
		RefRecord(run.Event{V: 0, Ref: spec.VertexRef{Graph: 0, V: 0}}),
		RefRecord(run.Event{V: 1, Ref: spec.VertexRef{Graph: 0, V: 1}, Preds: []graph.VertexID{0}}),
		NamedRecord(core.NamedEvent{V: 2, Name: "align", Preds: []graph.VertexID{0, 1}}),
		RefRecord(run.Event{V: 300, Ref: spec.VertexRef{Graph: 7, V: 12}, Preds: []graph.VertexID{2, 299}}),
		NamedRecord(core.NamedEvent{V: 301, Name: ""}),
	}
}

// logRecord appends rec to l as a frame of its own.
func logRecord(l *Log, rec Record) error {
	frame, err := AppendFrame(nil, rec)
	if err != nil {
		return err
	}
	return l.AppendRaw(frame)
}

func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := logRecord(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, path string) ([]Record, int64) {
	t.Helper()
	var got []Record
	n, size, err := Scan(path, func(i int, rec Record) error {
		if i != len(got) {
			t.Fatalf("record index %d, want %d", i, len(got))
		}
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Scan count %d, callbacks %d", n, len(got))
	}
	return got, size
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	got, size := scanAll(t, path)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("valid size %d, file size %d", size, fi.Size())
	}
}

func TestScanMissingFile(t *testing.T) {
	n, size, err := Scan(filepath.Join(t.TempDir(), "nope.wal"), nil)
	if err != nil || n != 0 || size != 0 {
		t.Fatalf("missing file: n=%d size=%d err=%v", n, size, err)
	}
}

func TestScanCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	writeLog(t, path, testRecords())
	boom := errors.New("boom")
	n, _, err := Scan(path, func(i int, rec Record) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 2 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

// TestTruncatedTail cuts the file at every possible byte length and
// checks the scan always yields an intact prefix of the records.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords()
	writeLog(t, full, recs)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries (each frame is 8 bytes + payload), for deciding
	// how many records survive a cut.
	bounds := []int64{0}
	for off := int64(0); off < int64(len(raw)); {
		n := int64(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(recs)+1 {
		t.Fatalf("found %d records in file, want %d", len(bounds)-1, len(recs))
	}

	path := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for i, b := range bounds {
			if int64(cut) >= b {
				wantN = i
			}
		}
		got, size := scanAll(t, path)
		if len(got) != wantN {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		if size != bounds[wantN] {
			t.Fatalf("cut at %d: valid size %d, want %d", cut, size, bounds[wantN])
		}
		if wantN > 0 && !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut at %d: wrong prefix", cut)
		}
	}
}

// TestCorruptMiddleRecord flips one payload byte of an interior record
// and checks everything from that record on is discarded.
func TestCorruptMiddleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries of record 0 and 1: frame is 8 bytes + payload.
	b0 := 8 + int64(uint32(raw[0])|uint32(raw[1])<<8|uint32(raw[2])<<16|uint32(raw[3])<<24)
	raw[b0+8] ^= 0xff // first payload byte of record 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, size := scanAll(t, path)
	if len(got) != 1 || size != b0 {
		t.Fatalf("corrupt record 1: recovered %d records (size %d), want 1 (%d)", len(got), size, b0)
	}
	if !reflect.DeepEqual(got[0], recs[0]) {
		t.Fatalf("surviving record differs")
	}
}

// TestOpenTruncatesAndAppends reopens a log with a torn tail at its
// valid size and appends fresh records; the result must be the valid
// prefix plus the new records.
func TestOpenTruncatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	valid, size := scanAll(t, path)
	l, err := Open(path, size, int64(len(valid)), false)
	if err != nil {
		t.Fatal(err)
	}
	extra := NamedRecord(core.NamedEvent{V: 999, Name: "after-crash", Preds: []graph.VertexID{1}})
	if err := logRecord(l, extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, path)
	want := append(append([]Record{}, recs[:len(recs)-1]...), extra)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery log:\n got %+v\nwant %+v", got, want)
	}
}

// TestAppendRejectsOversizedRecord: a record Scan would refuse as
// corrupt must never be accepted (and acknowledged) by Append.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	big := NamedRecord(core.NamedEvent{V: 1, Name: strings.Repeat("x", MaxPayload)})
	if err := logRecord(l, big); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The rejection must leave the log clean and usable.
	ok := NamedRecord(core.NamedEvent{V: 1, Name: "ok"})
	if err := logRecord(l, ok); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, path)
	if len(got) != 1 || !reflect.DeepEqual(got[0], ok) {
		t.Fatalf("log after rejected append: %+v", got)
	}
}

// framesFrom walks the log from a byte offset — what every consumer
// that resumes at a recorded watermark does — and returns the decoded
// records plus the absolute end of the valid prefix.
func framesFrom(t *testing.T, path string, off int64) ([]Record, int64) {
	t.Helper()
	w := OpenWalk(path, off)
	defer w.Close()
	var got []Record
	for w.Next() {
		got = append(got, w.Records()...)
		w.preds = nil // the records kept keep theirs
	}
	if err := w.Err(); err != nil {
		t.Fatalf("offset %d: %v", off, err)
	}
	if w.Seq() != int64(len(got)) {
		t.Fatalf("offset %d: the walk counts %d records, yielded %d", off, w.Seq(), len(got))
	}
	return got, w.End()
}

// TestScanFromBoundaries appends records one at a time, recording the
// AppendBytes watermark after each, then scans from every watermark
// and checks the walk yields exactly the records appended after it —
// the contract every recorded watermark (Meta.WALBytes) depends on.
func TestScanFromBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() != 0 {
		t.Fatalf("fresh log AppendBytes = %d, want 0", l.AppendBytes())
	}
	marks := []int64{0}
	for _, r := range recs {
		if err := logRecord(l, r); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, l.AppendBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if marks[len(marks)-1] != fi.Size() {
		t.Fatalf("final AppendBytes %d, file size %d", marks[len(marks)-1], fi.Size())
	}
	for k, off := range marks {
		got, size := framesFrom(t, path, off)
		if !reflect.DeepEqual(got, append([]Record(nil), recs[k:]...)) {
			t.Fatalf("offset %d: scanned %d records, want suffix of %d", off, len(got), len(recs)-k)
		}
		if size != fi.Size() {
			t.Fatalf("offset %d: validSize %d, want %d (absolute)", off, size, fi.Size())
		}
	}
}

// TestScanFromPastEOF: an offset beyond the file walks as empty and
// echoes the offset back as the valid size, rather than erroring or
// misparsing mid-frame bytes; a missing file behaves the same way for
// any offset.
func TestScanFromPastEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	writeLog(t, path, testRecords())
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		off  int64
	}{{path, fi.Size() + 1000}, {filepath.Join(t.TempDir(), "nope.wal"), 42}} {
		if got, size := framesFrom(t, tc.path, tc.off); len(got) != 0 || size != tc.off {
			t.Fatalf("%s from %d: %d records, valid size %d", tc.path, tc.off, len(got), size)
		}
		seed := integrity.NewChainer()
		seed.Add([]byte{1})
		want := seed.Head()
		if head, n, size := chainWalk(t, tc.path, tc.off, seed); n != 0 || size != tc.off || head != want {
			t.Fatalf("chain walk %s from %d: head=%s n=%d size=%d", tc.path, tc.off, head, n, size)
		}
	}
}

// TestAppendBytesResume reopens a log at its valid size and checks the
// watermark is seeded from it, so offsets recorded before a restart
// keep meaning the same byte positions after it.
func TestAppendBytesResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs[:3])
	_, valid, err := Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, valid, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() != valid {
		t.Fatalf("reopened AppendBytes = %d, want %d", l.AppendBytes(), valid)
	}
	if err := logRecord(l, recs[3]); err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() <= valid {
		t.Fatalf("AppendBytes did not advance past %d", valid)
	}
	after := l.AppendBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := framesFrom(t, path, valid)
	if !reflect.DeepEqual(got, recs[3:4]) {
		t.Fatalf("tail after resume: got %+v, want %+v", got, recs[3:4])
	}
	if fi, _ := os.Stat(path); fi.Size() != after {
		t.Fatalf("file size %d, AppendBytes %d", fi.Size(), after)
	}
}

// TestBatchPastMaxPayloadSpansTwoFrames: a batch whose payload would
// pass MaxPayload — eight records of 200 KiB names — is written as two
// frames, split where the cap forces it and nowhere else; the log takes
// both, counts all eight records, and scans and chains them back.
func TestBatchPastMaxPayloadSpansTwoFrames(t *testing.T) {
	long := strings.Repeat("n", 200<<10)
	var recs []Record
	for i := range 8 {
		recs = append(recs, NamedRecord(core.NamedEvent{V: graph.VertexID(i), Name: long, Preds: []graph.VertexID{graph.VertexID(i / 2)}}))
	}
	var buf []byte
	var opens []int
	open := -1
	for _, rec := range recs {
		var err error
		if buf, open, err = AppendRecord(buf, open, rec); err != nil {
			t.Fatal(err)
		}
		if len(opens) == 0 || opens[len(opens)-1] != open {
			opens = append(opens, open)
		}
	}
	if len(opens) != 2 || opens[0] != 0 {
		t.Fatalf("frames open at %v, want two", opens)
	}
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := opens[1] - FrameHeaderSize; n > MaxPayload || n < MaxPayload-len(long)-16 {
		t.Fatalf("a first frame of %d payload bytes: the split is not where the cap forces it", n)
	}
	for _, frame := range [][]byte{buf[:opens[1]], buf[opens[1]:]} {
		if err := l.AppendRaw(frame); err != nil {
			t.Fatal(err)
		}
	}
	if l.AppendSeq() != int64(len(recs)) {
		t.Fatalf("two frames advanced the sequence to %d, want %d", l.AppendSeq(), len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, size := scanAll(t, path)
	if !reflect.DeepEqual(got, recs) || size != int64(len(buf)) {
		t.Fatalf("scanned %d records over %d of %d bytes", len(got), size, len(buf))
	}
	if _, n, _ := chainWalk(t, path, 0, nil); n != int64(len(recs)) {
		t.Fatalf("chain walk: %d records", n)
	}
	// A record alone past the cap has no frame to go to.
	big := NamedRecord(core.NamedEvent{V: 9, Name: strings.Repeat("n", MaxPayload)})
	if out, open2, err := AppendRecord(buf, open, big); err == nil || len(out) != len(buf) || open2 != open {
		t.Fatalf("a record past the cap: %v, %d bytes, open %d", err, len(out), open2)
	}
}

// TestAppendRawTakesOnlyWholeRuns: a frame is logged only when its
// payload decodes whole, as a run of compact records or one classic
// record alone; anything else is refused before a byte is written, and
// the sequence advances by the records of the frames taken. A run of
// frames is taken whole or not at all: one whose last frame is damaged
// buffers nothing and leaves the sequence, the byte count and the chain
// head as they were.
func TestAppendRawTakesOnlyWholeRuns(t *testing.T) {
	recs := testRecords()
	var run []byte
	open := -1
	for _, rec := range recs {
		var err error
		if run, open, err = AppendRecord(run, open, rec); err != nil {
			t.Fatal(err)
		}
	}
	payload := run[FrameHeaderSize:]
	classic := classicPayload(recs[1])
	l, err := Open(filepath.Join(t.TempDir(), "events.wal"), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, bad := range []struct {
		name    string
		payload []byte
	}{
		{"a byte past the last record", append(slices.Clone(payload), 0)},
		{"the last record cut short", payload[:len(payload)-1]},
		{"a classic record before a compact one", slices.Concat(classic, payload)},
		{"a compact record before a classic one", slices.Concat(payload, classic)},
		{"two classic records", slices.Concat(classic, classic)},
	} {
		if err := l.AppendRaw(frameOf(bad.payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: AppendRaw = %v, want ErrCorrupt", bad.name, err)
		}
		if _, err := DecodePayload(nil, new([]graph.VertexID), bad.payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodePayload = %v, want ErrCorrupt", bad.name, err)
		}
	}
	if l.AppendSeq() != 0 || l.AppendBytes() != 0 {
		t.Fatalf("refused frames left seq %d, %d bytes", l.AppendSeq(), l.AppendBytes())
	}
	for _, good := range [][]byte{run, frameOf(classic)} {
		if err := l.AppendRaw(good); err != nil {
			t.Fatal(err)
		}
	}
	if l.AppendSeq() != int64(len(recs)+1) {
		t.Fatalf("a run of %d records and a classic one: seq %d", len(recs), l.AppendSeq())
	}
	seq, head, _ := l.ChainHead()
	size := l.AppendBytes()
	for _, bad := range []struct {
		name   string
		frames []byte
	}{
		{"its last payload cut short", slices.Concat(run, frameOf(classic), frameOf(payload[:len(payload)-1]))},
		{"its last frame cut short", slices.Concat(run, run[:len(run)-1])},
		{"a byte past its last frame", slices.Concat(run, run, []byte{0})},
		{"its last header zeroed", slices.Concat(run, make([]byte, FrameHeaderSize))},
	} {
		if err := l.AppendRaw(bad.frames); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a run with %s: AppendRaw = %v, want ErrCorrupt", bad.name, err)
		}
		if s, h, _ := l.ChainHead(); s != seq || h != head || l.AppendBytes() != size {
			t.Fatalf("a run with %s moved the log to seq %d, %d bytes, head %s", bad.name, s, l.AppendBytes(), h)
		}
	}
	if err := l.AppendRaw(slices.Concat(run, frameOf(classic), run)); err != nil || l.AppendSeq() != seq+int64(2*len(recs)+1) {
		t.Fatalf("a run of three frames: %v, seq %d", err, l.AppendSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, size, err := Scan(l.path, nil); err != nil || n != 3*len(recs)+2 || size != l.AppendBytes() {
		t.Fatalf("the log scans %d records over %d of %d bytes (%v)", n, size, l.AppendBytes(), err)
	}
}

// frameOf frames payload with its header.
func frameOf(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}
