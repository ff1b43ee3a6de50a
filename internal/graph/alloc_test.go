//go:build !race

package graph_test

import (
	"runtime"
	"testing"

	"wfreach/internal/graph"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSeriesAllocatesLinearly: composing four times the copies of a
// BioAID loop body costs at most five times the bytes. A composition
// that searches the union built so far for every edge it adds is
// quadratic and fails here.
func TestSeriesAllocatesLinearly(t *testing.T) {
	s := spec.MustCompile(wfspecs.BioAID()).Spec()
	body := s.Graph(s.Implementations("L1")[0]).G
	series := func(k int) func() {
		return func() {
			parts := make([]*graph.Graph, k)
			for i := range parts {
				parts[i] = body
			}
			graph.Series(parts...)
		}
	}
	small, large := allocatedBy(series(1024)), allocatedBy(series(4096))
	t.Logf("Series of 1024 copies: %d B, of 4096: %d B (%.2f×)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Fatalf("Series of 4096 copies allocates %d B, more than 5× the %d B of 1024", large, small)
	}
}
