//go:build !race

package api

import (
	"math/rand"
	"testing"
)

// TestAppendFramesAllocatesOnce: the SDK's ingest body is one
// allocation, however many events it frames — the length pass reserves
// it before the first frame is written.
func TestAppendFramesAllocatesOnce(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(5)), 256)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := AppendFrames(nil, events); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a %d-event body: %v allocations, want 1", len(events), n)
	}
}
