package arena

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/integrity"
)

func v3Entries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{V: graph.VertexID(i * 3), Enc: []byte{byte(i), byte(i >> 8), 0x5A, byte(i * 7)}}
	}
	return out
}

func TestV3RoundTripAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	chain := integrity.NewChainer().Extend(integrity.Head{}, []byte("pretend-wal"))
	entries := v3Entries(500)
	root, err := Write(path, Meta{Events: 500, WALBytes: 9000, ChainHead: chain, HasChain: true}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if root.IsZero() {
		t.Fatal("Write returned a zero Merkle root for a non-empty arena")
	}

	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	gotRoot, gotChain := a.Integrity()
	if gotRoot != root || gotChain != chain {
		t.Fatalf("Integrity() = (%s, %s), want (%s, %s)", gotRoot, gotChain, root, chain)
	}
	if !a.meta.HasChain || a.meta.ChainHead != chain {
		t.Fatalf("Meta does not carry the chain head")
	}
	if err := a.VerifyMerkle(); err != nil {
		t.Fatalf("VerifyMerkle on a pristine arena: %v", err)
	}
	// The root matches an independent recomputation from the entries.
	if want := naivePageRoot(entries); want != root {
		t.Fatalf("stored root %s, independent recomputation %s", root, want)
	}
}

// naivePageRoot is the snapshot's Merkle root as the integrity package
// documents it, computed without its accumulator: pages of 64 entries,
// each leaf SHA-256(0x00 || per entry uint32le(v) || uvarint(len) ||
// label), then leaves combined pairwise level by level, an odd node
// promoted as-is.
func naivePageRoot(entries []Entry) integrity.Head {
	var level []integrity.Head
	for lo := 0; lo < len(entries); lo += 64 {
		page := []byte{0x00}
		for _, e := range entries[lo:min(lo+64, len(entries))] {
			page = binary.LittleEndian.AppendUint32(page, uint32(e.V))
			page = binary.AppendUvarint(page, uint64(len(e.Enc)))
			page = append(page, e.Enc...)
		}
		level = append(level, sha256.Sum256(page))
	}
	if len(level) == 0 {
		return integrity.Head{}
	}
	for len(level) > 1 {
		var next []integrity.Head
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			next = append(next, sha256.Sum256(slices.Concat([]byte{0x01}, level[i][:], level[i+1][:])))
		}
		level = next
	}
	return level[0]
}

// TestWriteRefusesWithoutChain: a snapshot anchored to no chain head
// would make the next restore refuse to boot (a zero anchor matches no
// log), so Write refuses it and leaves nothing behind — the WAL alone
// always recovers.
func TestWriteRefusesWithoutChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 40, WALBytes: 512}, v3Entries(40)); err == nil {
		t.Fatal("Write accepted a Meta without a chain head")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused Write left a file behind (stat: %v)", err)
	}
}

// TestV3TamperedExtentFailsMerkle flips one byte in the label region,
// which no checksum but the Merkle root covers.
func TestV3TamperedExtentFailsMerkle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 300, HasChain: true}, v3Entries(300)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	labelOff := headerSize + int(binary.LittleEndian.Uint64(raw[104:112]))
	raw[labelOff+5] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := Open(path)
	if err != nil {
		t.Fatalf("a label-region tamper must open cleanly, got %v", err)
	}
	defer a.Close()
	if err := a.VerifyMerkle(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("VerifyMerkle accepted a rewritten label extent")
	}
}

// TestV3HeaderDamageCaught: an unpatched flip anywhere the index CRC
// covers — the integrity anchors included — fails at Open.
func TestV3HeaderDamageCaught(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 10, HasChain: true}, v3Entries(10)); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[50] ^= 0x01 // inside merkleRoot
	os.WriteFile(path, raw, 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a flipped integrity anchor byte")
	}
}

// TestUnknownSnapVersionRejected: any other format in the WFSNAP
// lineage is ErrVersion, not garbage decode. The magic is one no format
// will take: the numbered ones are for real formats.
func TestUnknownSnapVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 10, HasChain: true}, v3Entries(10)); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	copy(raw, "WFSNAPZZ")
	os.WriteFile(path, raw, 0o644)
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open = %v, want ErrVersion", err)
	}
}
