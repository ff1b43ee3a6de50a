//go:build !race

package arena

import (
	"testing"

	"wfreach/internal/graph"
)

// TestVerifyMerkleAllocatesConstant: verifying a snapshot allocates the
// accumulator and nothing per label, so a restore's Merkle pass costs
// the same few objects over a thousand labels as over a hundred
// thousand.
func TestVerifyMerkleAllocatesConstant(t *testing.T) {
	allocs := func(n int) float64 {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{V: graph.VertexID(i), Enc: make([]byte, 6+i%12)}
		}
		a := writeOpen(t, Meta{Events: int64(n), HasChain: true}, entries)
		return testing.AllocsPerRun(5, func() {
			if err := a.VerifyMerkle(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(100_000)
	t.Logf("VerifyMerkle: %v allocations over 1k labels, %v over 100k", small, large)
	if small != large || large > 4 {
		t.Fatalf("VerifyMerkle: %v allocations over 1k labels, %v over 100k, want the same ≤ 4", small, large)
	}
}
