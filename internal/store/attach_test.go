package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/wfspecs"
)

// arenaImage writes entries as a snapshot file and returns its bytes.
func arenaImage(t testing.TB, entries []arena.Entry) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := arena.Write(path, arena.Meta{Events: int64(len(entries)), HasChain: true}, entries); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// snapImage builds a snapshot image by hand around a raw index — header
// and index, with sizes and index CRC that match, followed by labels —
// so that a test can hand Open what arena.Write never writes.
func snapImage(count int, labelBytes uint64, index, labels []byte) []byte {
	img := make([]byte, 120, 120+len(index)+len(labels))
	copy(img, arena.Magic)
	binary.LittleEndian.PutUint64(img[24:], uint64(count))
	binary.LittleEndian.PutUint64(img[32:], labelBytes)
	binary.LittleEndian.PutUint64(img[108:], uint64(len(index)))
	img = append(img, index...)
	h := crc32.NewIEEE()
	h.Write(img[8:116])
	h.Write(index)
	binary.LittleEndian.PutUint32(img[116:], h.Sum32())
	return append(img, labels...)
}

// FuzzAttachArena extends arena.FuzzArenaOpen to the reader the store
// shares between heap and mapped labels: any image Open accepts either
// attaches — and then every extent Range yields reads back byte for
// byte through GetRaw, and nothing else does — or is refused for a
// label too long for an index word, whole, never cut to fit.
func FuzzAttachArena(f *testing.F) {
	valid := arenaImage(f, []arena.Entry{
		{V: 0, Enc: []byte("alpha")},
		{V: 1, Enc: nil},
		{V: 5, Enc: []byte("gamma-gamma")},
		{V: 1 << 22, Enc: []byte("far out")},
		{V: 1<<22 + 1, Enc: nil},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(arenaImage(f, nil))
	f.Add(arenaImage(f, []arena.Entry{{V: 3, Enc: bytes.Repeat([]byte{7}, 1<<16)}}))
	// Indexes only the index walk can refuse: an overlong varint, a zero
	// delta, index bytes left over, a length sum off by one either way.
	for _, index := range [][]byte{
		{0x80, 0x00, 2, 1, 3, 7, 1},
		{1, 2, 0, 3, 8, 1},
		{1, 2, 1, 3, 7, 1, 0},
		{1, 2, 1, 3, 7, 2},
		{1, 2, 1, 3, 7, 0},
	} {
		f.Add(snapImage(3, 6, index, []byte("aabbbc")))
	}
	g := spec.MustCompile(wfspecs.RunningExample())

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "labels.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := arena.Open(path)
		if err != nil {
			return
		}
		defer a.Close() // ours if the attach is refused; closed twice, harmlessly, if not
		longest := 0
		a.Range(func(_ graph.VertexID, enc []byte) bool {
			longest = max(longest, len(enc))
			return true
		})
		s, err := store.NewFromArena(g, skeleton.TCL, a)
		if err != nil {
			if longest < 1<<16 {
				t.Fatalf("image of %d labels, longest %d bytes, refused: %v", a.Count(), longest, err)
			}
			return
		}
		if longest >= 1<<16 {
			t.Fatalf("attached an image with a %d-byte label", longest)
		}
		if s.Count() != a.Count() || s.Bits() != 8*len(a.Labels()) {
			t.Fatalf("store counts %d labels, %d bits; image holds %d, %d bytes", s.Count(), s.Bits(), a.Count(), len(a.Labels()))
		}
		prev := graph.VertexID(-1)
		a.Range(func(v graph.VertexID, enc []byte) bool {
			got, ok := s.GetRaw(v)
			if !ok || !bytes.Equal(got, enc) {
				t.Fatalf("GetRaw(%d) = %x, %v; the image holds %x", v, got, ok, enc)
			}
			if _, ok := s.GetRaw(v - 1); ok && v-1 != prev {
				t.Fatalf("GetRaw(%d) found a label the image does not hold", v-1)
			}
			prev = v
			return true
		})
		if got := s.SnapshotEntries(); len(got) != a.Count() {
			t.Fatalf("SnapshotEntries walks %d labels of %d", len(got), a.Count())
		}
	})
}

// TestAttachRefusesWhatAnIndexWordCannotAddress: a snapshot with a
// label over 64 KiB, or a label region over 4 GiB, is a valid file the
// store cannot index. Attach says so and leaves the store empty and
// usable; it never stores a shortened extent.
func TestAttachRefusesWhatAnIndexWordCannotAddress(t *testing.T) {
	g := spec.MustCompile(wfspecs.RunningExample())
	open := func(t *testing.T, path string) *arena.Arena {
		a, err := arena.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return a
	}
	refused := func(t *testing.T, a *arena.Arena, want string) {
		s := store.New(g, skeleton.TCL)
		if err := s.AttachArena(a, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("AttachArena = %v, want a refusal naming the %s", err, want)
		}
		if s.Count() != 0 || s.ArenaCount() != 0 || len(s.SnapshotEntries()) != 0 {
			t.Fatalf("refused attach left %d labels behind", s.Count())
		}
		if err := s.AppendOwned([]store.Entry{{V: 2, Enc: []byte{1}}}); err != nil {
			t.Fatalf("store unusable after a refused attach: %v", err)
		}
	}

	t.Run("label", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "labels.snap")
		entries := []arena.Entry{{V: 0, Enc: []byte("ok")}, {V: 1, Enc: make([]byte, 1<<16)}}
		if _, err := arena.Write(path, arena.Meta{HasChain: true}, entries); err != nil {
			t.Fatal(err)
		}
		refused(t, open(t, path), "label of vertex 1")
	})

	t.Run("region", func(t *testing.T) {
		if runtime.GOOS != "linux" || testing.Short() {
			t.Skip("needs a sparse 4 GiB file and a mapping of it")
		}
		// 65538 labels of 65535 bytes: each addressable, together past
		// 4 GiB. Only the header and index are written; the label region
		// is a hole, which Open never reads (its CRC is Verify's job).
		const count, length = 1<<16 + 2, 1<<16 - 1
		index := binary.AppendUvarint(nil, 0)
		for i := 0; i < count; i++ {
			if i > 0 {
				index = binary.AppendUvarint(index, 1)
			}
			index = binary.AppendUvarint(index, length)
		}
		img := snapImage(count, count*length, index, nil)
		path := filepath.Join(t.TempDir(), "labels.snap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, int64(len(img))+count*length); err != nil {
			t.Skipf("no sparse files here: %v", err)
		}
		a, err := arena.Open(path)
		if err != nil {
			t.Skipf("cannot map a 4 GiB hole here: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		refused(t, a, "label region")
	})
}
