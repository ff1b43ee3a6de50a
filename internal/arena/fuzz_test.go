package arena

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wfreach/internal/graph"
)

// FuzzArenaOpen throws arbitrary bytes at the parser. The property
// under test: Open either rejects the input or returns an arena whose
// every entry is a safe, in-bounds slice — no panics, no entry that
// escapes the label region, no unsorted index. Seeds cover the
// interesting neighborhoods: a valid file, truncations, header and
// index mutations.
func FuzzArenaOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.snap")
	entries := []Entry{
		{V: 0, Enc: []byte("alpha")},
		{V: 1, Enc: []byte("b")},
		{V: 5, Enc: []byte("gamma-gamma")},
	}
	if _, err := Write(path, Meta{Events: 3, WALBytes: 99, HasChain: true}, entries); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])         // truncated label region
	f.Add(valid[:headerSize+2])         // truncated index
	f.Add(valid[:12])                   // truncated header
	f.Add([]byte("WFSNAP01v1 body...")) // v1 magic
	f.Add([]byte("WFSNAP02"))           // v2 magic only
	f.Add([]byte(Magic))                // magic only
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	mutated := bytes.Clone(valid)
	mutated[headerSize+1] ^= 0x01 // entry 0 length
	f.Add(mutated)
	// Indexes every other check accepts: an overlong varint, a zero
	// delta, index bytes left over, a length sum off by one, and the
	// neighbors of the largest vertex id.
	for _, tc := range indexCases {
		f.Add(build(tc.count, tc.index, []byte("aabbbc")))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := parse(bytes.Clone(data), false)
		if err != nil {
			return
		}
		// Accepted: every access must stay in bounds and ordered.
		prev := graph.VertexID(-1)
		total := 0
		a.Range(func(v graph.VertexID, enc []byte) bool {
			if v <= prev {
				t.Fatalf("unsorted index accepted: %d after %d", v, prev)
			}
			prev = v
			total += len(enc)
			if got := a.Labels()[total-len(enc) : total]; len(enc) > 0 && &got[0] != &enc[0] {
				t.Fatalf("extent of %d does not start where the previous one ended", v)
			}
			return true
		})
		if total != len(a.Labels()) {
			t.Fatalf("extents cover %d bytes, label region is %d", total, len(a.Labels()))
		}
	})
}
