package arena

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wfreach/internal/graph"
)

// writeOpen round-trips entries through a file.
func writeOpen(t *testing.T, meta Meta, entries []Entry) *Arena {
	t.Helper()
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, meta, entries); err != nil {
		t.Fatalf("Write: %v", err)
	}
	a, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// get finds v's label by walking the extents: the package has no point
// lookup of its own (internal/store indexes an adopted arena).
func get(a *Arena, v graph.VertexID) (enc []byte, ok bool) {
	a.Range(func(w graph.VertexID, b []byte) bool {
		if w == v {
			enc, ok = b, true
		}
		return !ok
	})
	return enc, ok
}

func TestRoundTripDense(t *testing.T) {
	entries := make([]Entry, 100)
	want := make(map[graph.VertexID][]byte)
	for i := range entries {
		enc := []byte(fmt.Sprintf("label-%03d", i))
		entries[i] = Entry{V: graph.VertexID(i), Enc: enc}
		want[graph.VertexID(i)] = enc
	}
	// Shuffle: Write must sort.
	rand.New(rand.NewSource(1)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	a := writeOpen(t, Meta{Events: 100, WALBytes: 4321, HasChain: true}, entries)
	if a.Events() != 100 || a.WALBytes() != 4321 || a.Count() != 100 {
		t.Fatalf("meta = %+v count %d", a.meta, a.Count())
	}
	for v, enc := range want {
		got, ok := get(a, v)
		if !ok || !bytes.Equal(got, enc) {
			t.Fatalf("Get(%d) = %q, %v; want %q", v, got, ok, enc)
		}
	}
	for _, v := range []graph.VertexID{-1, 100, 1 << 20} {
		if _, ok := get(a, v); ok {
			t.Fatalf("Get(%d) found a label that was never written", v)
		}
	}
	if err := a.VerifyMerkle(); err != nil {
		t.Fatalf("VerifyMerkle: %v", err)
	}
	// Evicted pages fault back in with the bytes the file holds: slices
	// handed out before stay good, and so does everything read after.
	held, _ := get(a, 42)
	a.Evict()
	if !bytes.Equal(held, want[42]) {
		t.Fatalf("a slice held across Evict reads %q, want %q", held, want[42])
	}
	if err := a.VerifyMerkle(); err != nil {
		t.Fatalf("VerifyMerkle after Evict: %v", err)
	}
}

func TestRoundTripSparse(t *testing.T) {
	vs := []graph.VertexID{3, 7, 8, 100, 5000, 1 << 20}
	entries := make([]Entry, len(vs))
	for i, v := range vs {
		entries[i] = Entry{V: v, Enc: []byte{byte(i), byte(i + 1)}}
	}
	a := writeOpen(t, Meta{HasChain: true}, entries)
	for i, v := range vs {
		got, ok := get(a, v)
		if !ok || !bytes.Equal(got, []byte{byte(i), byte(i + 1)}) {
			t.Fatalf("Get(%d) = %q, %v", v, got, ok)
		}
	}
	for _, v := range []graph.VertexID{0, 4, 99, 101, 1<<20 + 1} {
		if _, ok := get(a, v); ok {
			t.Fatalf("Get(%d) found a label that was never written", v)
		}
	}
	var ranged []graph.VertexID
	a.Range(func(v graph.VertexID, enc []byte) bool {
		ranged = append(ranged, v)
		return true
	})
	if len(ranged) != len(vs) {
		t.Fatalf("Range visited %v, want %v", ranged, vs)
	}
	for i := range vs {
		if ranged[i] != vs[i] {
			t.Fatalf("Range order %v, want ascending %v", ranged, vs)
		}
	}
}

func TestEmptyArena(t *testing.T) {
	a := writeOpen(t, Meta{Events: 0, HasChain: true}, nil)
	if a.Count() != 0 || len(a.Labels()) != 0 {
		t.Fatalf("empty arena has count %d, %d label bytes", a.Count(), len(a.Labels()))
	}
	if _, ok := get(a, 0); ok {
		t.Fatal("empty arena served a label")
	}
}

func TestEmptyLabels(t *testing.T) {
	// Zero-length encodings are legal entries (not produced by the
	// codec today, but the format must not conflate length 0 with
	// absence).
	a := writeOpen(t, Meta{HasChain: true}, []Entry{{V: 1, Enc: nil}, {V: 2, Enc: []byte("x")}, {V: 3, Enc: nil}})
	if enc, ok := get(a, 1); !ok || len(enc) != 0 {
		t.Fatalf("Get(1) = %q, %v", enc, ok)
	}
	if enc, ok := get(a, 2); !ok || string(enc) != "x" {
		t.Fatalf("Get(2) = %q, %v", enc, ok)
	}
}

func TestWriteRejectsDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	_, err := Write(path, Meta{HasChain: true}, []Entry{{V: 5, Enc: []byte("a")}, {V: 5, Enc: []byte("b")}})
	if err == nil {
		t.Fatal("duplicate vertex accepted")
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	entries := func() []Entry {
		return []Entry{{V: 9, Enc: []byte("i")}, {V: 2, Enc: []byte("b")}, {V: 5, Enc: []byte("e")}}
	}
	p1, p2 := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if _, err := Write(p1, Meta{Events: 3, WALBytes: 77, HasChain: true}, entries()); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(p2, Meta{Events: 3, WALBytes: 77, HasChain: true}, entries()); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical states produced different files")
	}
}

// TestOpenRejectsV1Magic: the formats earlier builds wrote (WFSNAP01 to
// WFSNAP04) are ErrVersion whatever follows the magic — even nothing —
// which is what lets restore treat them as absent and replay the log.
func TestOpenRejectsV1Magic(t *testing.T) {
	for _, body := range [][]byte{
		append([]byte("WFSNAP01"), make([]byte, 64)...),
		append([]byte("WFSNAP02"), make([]byte, 200)...),
		append([]byte("WFSNAP03"), make([]byte, 104)...),
		append([]byte("WFSNAP04"), make([]byte, 112)...),
		[]byte("WFSNAP01"),
	} {
		path := filepath.Join(t.TempDir(), "labels.snap")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("%q + %d bytes: got %v, want ErrVersion", body[:8], len(body)-8, err)
		}
	}
}

// corrupt writes a valid arena, applies mutate to its bytes, and
// returns the Open error.
func corrupt(t *testing.T, mutate func(b []byte) []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "labels.snap")
	entries := []Entry{{V: 1, Enc: []byte("aa")}, {V: 2, Enc: []byte("bbb")}, {V: 9, Enc: []byte("c")}}
	if _, err := Write(path, Meta{Events: 3, WALBytes: 60, HasChain: true}, entries); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(path)
	if err == nil {
		a.Close()
	}
	return err
}

func TestOpenRejectsCorruption(t *testing.T) {
	cases := map[string]func(b []byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:20] },
		"truncated index":  func(b []byte) []byte { return b[:headerSize+4] },
		"truncated labels": func(b []byte) []byte { return b[:len(b)-2] },
		"trailing garbage": func(b []byte) []byte { return append(b, 0xff) },
		"index bit flip":   func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b },
		"count inflated":   func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:32], 1<<40); return b },
		"index size inflated": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[104:112], 1<<62)
			reseal(b)
			return b
		},
	}
	for name, mutate := range cases {
		if err := corrupt(t, mutate); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// build assembles an image of count entries around a raw index and
// label region, with the header's sizes and index CRC made to match,
// so that only the index walk can object.
func build(count int, index, labels []byte) []byte {
	b := make([]byte, headerSize, headerSize+len(index)+len(labels))
	copy(b, Magic)
	binary.LittleEndian.PutUint64(b[24:32], uint64(count))
	binary.LittleEndian.PutUint64(b[32:40], uint64(len(labels)))
	binary.LittleEndian.PutUint64(b[104:112], uint64(len(index)))
	b = append(append(b, index...), labels...)
	reseal(b)
	return b
}

// reseal recomputes the index CRC after a deliberate index mutation,
// so structural validation (not the checksum) is what gets exercised.
func reseal(b []byte) {
	index := b[headerSize:]
	if n := binary.LittleEndian.Uint64(b[104:112]); n <= uint64(len(index)) {
		index = index[:n]
	}
	h := crc32.NewIEEE()
	h.Write(b[8 : headerSize-4])
	h.Write(index)
	binary.LittleEndian.PutUint32(b[headerSize-4:], h.Sum32())
}

// indexCases are hand-written indexes over the label region "aabbbc"
// that every check but the index walk accepts: vertices 1, 2 and 9 with
// extents of 2, 3 and 1 bytes, and the ways to get that wrong.
var indexCases = []struct {
	name  string
	count int
	index []byte
	ok    bool
}{
	{"valid", 3, []byte{1, 2, 1, 3, 7, 1}, true},
	{"zero delta", 3, []byte{1, 2, 0, 3, 8, 1}, false},
	{"overlong varint", 3, []byte{0x81, 0x00, 2, 1, 3, 7, 1}, false},
	{"oversized varint", 3, []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 2, 1, 3, 7, 1}, false},
	{"truncated varint", 3, []byte{1, 2, 1, 3, 7, 0x81}, false},
	{"index bytes left over", 3, []byte{1, 2, 1, 3, 7, 1, 0}, false},
	{"entry missing", 3, []byte{1, 2, 1, 3}, false},
	{"lengths sum one over", 3, []byte{1, 2, 1, 3, 7, 2}, false},
	{"lengths sum one under", 3, []byte{1, 2, 1, 3, 7, 0}, false},
	{"largest vertex id", 3, append(binary.AppendUvarint(nil, 1<<31-3), 2, 1, 3, 1, 1), true},
	{"vertex id past int32", 3, append(binary.AppendUvarint(nil, 1<<31-2), 2, 1, 3, 1, 1), false},
}

// TestOpenValidatesTheIndex: the single pass at Open accepts exactly
// the indexes that describe strictly ascending, in-range vertices whose
// minimal varints fill the index and whose lengths fill the region.
func TestOpenValidatesTheIndex(t *testing.T) {
	for _, tc := range indexCases {
		a, err := parse(build(tc.count, tc.index, []byte("aabbbc")), false)
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err == nil && a.Count() != tc.count {
			t.Errorf("%s: %d entries, want %d", tc.name, a.Count(), tc.count)
		}
	}
}

// TestIndexBytesPerLabel pins the index's share of a snapshot: on dense
// vertex ids with labels of typical length an entry is two bytes.
func TestIndexBytesPerLabel(t *testing.T) {
	const n = 10000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{V: graph.VertexID(i), Enc: make([]byte, 8+i%5)}
	}
	a := writeOpen(t, Meta{Events: n, HasChain: true}, entries)
	if per := float64(len(a.index)) / n; per > 2.1 {
		t.Fatalf("index costs %.3f bytes per label, want ≤ 2.1", per)
	}
}

// TestWriteAllocatesOneIndex: Write sizes the index with a length pass
// and fills it in place, in one allocation of exactly its size.
func TestWriteAllocatesOneIndex(t *testing.T) {
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{V: graph.VertexID(3 * i), Enc: make([]byte, i%200)}
	}
	if allocs := testing.AllocsPerRun(20, func() { encodeIndex(entries) }); allocs != 1 {
		t.Fatalf("encodeIndex: %v allocations, want 1", allocs)
	}
	if index, _ := encodeIndex(entries); len(index) != cap(index) {
		t.Fatalf("index of %d bytes in a %d-byte buffer", len(index), cap(index))
	}
}

func TestVerifyCatchesLabelRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{HasChain: true}, []Entry{{V: 0, Enc: []byte("hello")}}); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0x01 // flip a label byte; header and index untouched
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(path)
	if err != nil {
		t.Fatalf("Open should accept label rot (index is intact): %v", err)
	}
	defer a.Close()
	if err := a.VerifyMerkle(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyMerkle: got %v, want ErrCorrupt", err)
	}
}

// TestCloseAndEvictInAnyOrder: an owner releases from two places — a
// deterministic retire and a cleanup — and evicts when a checkpoint is
// done, so Close is idempotent and Close and Evict may meet in either
// order, or at once (run with -race).
func TestCloseAndEvictInAnyOrder(t *testing.T) {
	entries := []Entry{{V: 1, Enc: []byte("one")}, {V: 2, Enc: []byte("two")}}
	open := func() *Arena { return writeOpen(t, Meta{Events: 2, HasChain: true}, entries) }

	a := open()
	size := a.MappedBytes()
	a.Evict()
	for range 2 {
		if err := a.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	a.Evict() // after Close: nothing left to advise on
	if a.MappedBytes() != 0 || a.Count() != 2 || a.Events() != 2 {
		t.Fatalf("closed arena: %d mapped bytes, %d labels, %d events", a.MappedBytes(), a.Count(), a.Events())
	}

	a = open()
	if a.MappedBytes() != size {
		t.Fatalf("MappedBytes = %d for the file that mapped %d", a.MappedBytes(), size)
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				a.Evict()
			} else if err := a.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
}
