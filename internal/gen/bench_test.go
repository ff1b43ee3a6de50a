package gen_test

import (
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// BenchmarkGenerate times input generation as the benchmark workloads
// use it: a BioAID run of 100k events capped at 64 copies per loop or
// fork (the HTTP workloads' stream), one of 200k capped at 128, the
// same run uncapped at 400k, and eight agent traces of 6,250 events
// (one mixed workload's worth).
func BenchmarkGenerate(b *testing.B) {
	g := spec.MustCompile(wfspecs.BioAID())
	for _, c := range []struct {
		name string
		opts gen.Options
	}{
		{"bioaid_100k_cap64", gen.Options{TargetSize: 100_000, Seed: 1, MaxCopies: 64}},
		{"bioaid_200k_cap128", gen.Options{TargetSize: 200_000, Seed: 1, MaxCopies: 128}},
		{"bioaid_400k_uncapped", gen.Options{TargetSize: 400_000, Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gen.GenerateEvents(g, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("agent_8x6250", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for seed := int64(0); seed < 8; seed++ {
				if _, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 6250, Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
