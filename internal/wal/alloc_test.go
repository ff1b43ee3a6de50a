//go:build !race

package wal

import (
	"testing"

	"wfreach/internal/graph"
)

// TestDecodeRecordAllocs: a record with predecessors costs the one
// slice it owns, a reused arena nothing.
func TestDecodeRecordAllocs(t *testing.T) {
	payload := refPayload(9, 1, 2, 3, 4, 5)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeRecord: %v allocations, want 1", n)
	}
	arena := make([]graph.VertexID, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		arena = arena[:0]
		if _, err := DecodeRecordInto(&arena, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeRecordInto a warm arena: %v allocations, want 0", n)
	}
}
