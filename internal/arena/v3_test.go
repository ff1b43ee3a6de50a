package arena

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
	chain := integrity.Extend(integrity.Head{}, []byte("pretend-wal"))
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
	if !a.Meta().HasChain || a.Meta().ChainHead != chain {
		t.Fatalf("Meta does not carry the chain head")
	}
	if err := a.VerifyMerkle(); err != nil {
		t.Fatalf("VerifyMerkle on a pristine arena: %v", err)
	}
	if err := a.Verify(); err != nil {
		t.Fatalf("label CRC verify: %v", err)
	}
	// The root matches an independent recomputation from the entries.
	m := integrity.NewMerkle()
	for _, e := range entries {
		m.Add(m.LabelLeaf(uint32(e.V), e.Enc))
	}
	if want := m.Root(); want != root {
		t.Fatalf("stored root %s, independent recomputation %s", root, want)
	}
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

// TestV3TamperedExtentFailsMerkle flips one byte in the label region —
// with the label CRC patched so only the Merkle root can object.
func TestV3TamperedExtentFailsMerkle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 300, HasChain: true}, v3Entries(300)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	labelOff := headerSize + int(binary.LittleEndian.Uint64(raw[108:116]))
	raw[labelOff+5] ^= 0x20
	// Patch the label-region CRC so the structural check stays green.
	binary.LittleEndian.PutUint32(raw[40:44], crc32.ChecksumIEEE(raw[labelOff:]))
	// And the index CRC, which covers header[8:108).
	idx := crc32.NewIEEE()
	idx.Write(raw[8 : headerSize-4])
	idx.Write(raw[headerSize:labelOff])
	binary.LittleEndian.PutUint32(raw[headerSize-4:headerSize], idx.Sum32())
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := Open(path)
	if err != nil {
		t.Fatalf("CRC-patched tamper must open cleanly, got %v", err)
	}
	defer a.Close()
	if err := a.Verify(); err != nil {
		t.Fatalf("label CRC was patched, Verify should pass: %v", err)
	}
	if err := a.VerifyMerkle(); err == nil {
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
// lineage is ErrVersion, not garbage decode.
func TestUnknownSnapVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	if _, err := Write(path, Meta{Events: 10, HasChain: true}, v3Entries(10)); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	copy(raw, "WFSNAP09")
	os.WriteFile(path, raw, 0o644)
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open = %v, want ErrVersion", err)
	}
}
