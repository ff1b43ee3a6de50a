//go:build !race

package wfxml_test

import (
	"bytes"
	"testing"

	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// bioaidXML is BioAID's specification as EncodeSpec writes it.
func bioaidXML(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, wfspecs.BioAID()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSpecAllocations: decoding BioAID's 116 vertices and 203
// edges costs what the graphs and the builder allocate and a string per
// name, not an object per token. Skipped under -race, which allocates.
func TestDecodeSpecAllocations(t *testing.T) {
	const limit = 1200
	in := bioaidXML(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := wfxml.DecodeSpec(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeSpec(BioAID, %d bytes): %.0f allocations", len(in), allocs)
	if allocs > limit {
		t.Errorf("DecodeSpec(BioAID) allocates %.0f objects, want at most %d", allocs, limit)
	}
}

func BenchmarkDecodeSpec(b *testing.B) {
	in := bioaidXML(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	for b.Loop() {
		if _, err := wfxml.DecodeSpec(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}
