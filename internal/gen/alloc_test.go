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

// TestGenerateAllocatesPerStep: a derivation step allocates a few
// objects whatever it adds — its step record, its id rows and one
// backing array for its adjacency lists — so Generate allocates at most
// six objects a step plus a constant, with few copies per loop or many,
// uncapped, and in either derivation order. Growing the run vertex by
// vertex, or composing the copies before splicing them, allocates per
// vertex and fails here.
func TestGenerateAllocatesPerStep(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	for _, opts := range []gen.Options{
		{TargetSize: 2_000},
		{TargetSize: 50_000, MaxCopies: 8},
		{TargetSize: 50_000, MaxCopies: 128},
		{TargetSize: 200_000},
		{TargetSize: 200_000, DepthFirst: true},
	} {
		opts.Seed = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := gen.MustGenerate(g, opts)
		runtime.ReadMemStats(&after)
		objects, steps := after.Mallocs-before.Mallocs, uint64(len(r.Steps))
		t.Logf("%+v: %d steps, %d objects (%.2f a step)", opts, steps, objects, float64(objects)/float64(steps))
		if objects > 6*steps+256 {
			t.Errorf("%+v: %d objects for %d steps, more than 6 a step + 256", opts, objects, steps)
		}
	}
}
