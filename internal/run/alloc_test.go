//go:build !race

package run_test

import (
	"math/rand"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// TestExecutionAllocatesPerRun: an execution allocates the same few
// objects — the events, one slab for every event's predecessors, and
// the ready list's bookkeeping — for a run of 2,000 vertices as for one
// of 100,000, in either draw order. A predecessor slice per event fails
// here.
func TestExecutionAllocatesPerRun(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	for _, size := range []int{2_000, 100_000} {
		r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: 1, MaxCopies: 64})
		for _, rng := range []*rand.Rand{nil, rand.New(rand.NewSource(1))} {
			objects := testing.AllocsPerRun(2, func() {
				if _, err := r.Execution(rng); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d vertices, random %v: %.0f objects", r.Size(), rng != nil, objects)
			if objects > 6 {
				t.Errorf("%d vertices, random %v: Execution allocates %.0f objects, want at most 6", r.Size(), rng != nil, objects)
			}
		}
	}
}
