package gen

import (
	"testing"

	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// rescannedEstimate is the size estimate summed over the run: live atoms
// plus the minimal expansion of every open composite.
func rescannedEstimate(r *run.Run) int {
	t := r.Size() - len(r.Open())
	for _, u := range r.Open() {
		t += r.Grammar.MinExpansion(r.NameOf(u))
	}
	return t
}

// TestRunningEstimateEqualsRescan holds the generators' running size
// estimate to the sum it replaces, after every derivation step.
func TestRunningEstimateEqualsRescan(t *testing.T) {
	steps := 0
	estimateHook = func(r *run.Run, est int) {
		steps++
		if want := rescannedEstimate(r); est != want {
			t.Fatalf("step %d: running estimate %d, rescan %d", len(r.Steps), est, want)
		}
	}
	defer func() { estimateHook = nil }()

	for _, sp := range []*spec.Spec{wfspecs.RunningExample(), wfspecs.BioAID()} {
		g := spec.MustCompile(sp)
		for seed := int64(0); seed < 4; seed++ {
			for _, maxCopies := range []int{0, 8} {
				for _, depthFirst := range []bool{false, true} {
					if _, err := Generate(g, Options{TargetSize: 3000, Seed: seed, MaxCopies: maxCopies, DepthFirst: depthFirst}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		if _, err := GenerateAgentTrace(AgentOptions{TargetSize: 2000, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if steps == 0 {
		t.Fatal("the estimate hook never ran")
	}
}
