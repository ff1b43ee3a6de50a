//go:build !race

package gen_test

import (
	"runtime"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestGenerateAllocatesLinearly: an uncapped BioAID run four times the
// size costs at most five times the bytes to derive. A derivation step
// that costs more than it adds — a cycle search per composed edge, a
// rescan of the run — makes generation quadratic and fails here.
func TestGenerateAllocatesLinearly(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	bytes := func(size int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: 1})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(50_000), bytes(200_000)
	t.Logf("uncapped Generate at 50k: %d B, at 200k: %d B (%.2f×)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Fatalf("Generate at 200k allocates %d B, more than 5× the %d B at 50k", large, small)
	}
}
