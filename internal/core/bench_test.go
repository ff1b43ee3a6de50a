package core_test

import (
	"math/rand"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

func benchSetup(b *testing.B, size int) (*spec.Grammar, *run.Run, []run.Event) {
	b.Helper()
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: size, Seed: 7})
	evs, err := r.Execution(nil)
	if err != nil {
		b.Fatal(err)
	}
	return g, r, evs
}

// BenchmarkPi measures the query predicate on prefetched labels: the
// paper's constant-time claim at the nanosecond scale.
func BenchmarkPi(b *testing.B) {
	_, r, _ := benchSetup(b, 8192)
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		b.Fatal(err)
	}
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]label.Label, 4096)
	for i := range pairs {
		pairs[i] = [2]label.Label{
			d.MustLabel(live[rng.Intn(len(live))]),
			d.MustLabel(live[rng.Intn(len(live))]),
		}
	}
	skel := d.Skeleton()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = sink != core.Pi(skel, p[0], p[1])
	}
	_ = sink
}

// BenchmarkPiBytes is BenchmarkPi on the encoded labels: the same
// pairs, walked in place by two cursors. The gap to BenchmarkPi is the
// price of parsing bits up to the divergence; the allocation count must
// print as zero.
func BenchmarkPiBytes(b *testing.B) {
	g, r, _ := benchSetup(b, 8192)
	d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
	if err != nil {
		b.Fatal(err)
	}
	codec := label.NewCodec(g)
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2][]byte, 4096)
	for i := range pairs {
		pairs[i] = [2][]byte{
			codec.Encode(d.MustLabel(live[rng.Intn(len(live))])),
			codec.Encode(d.MustLabel(live[rng.Intn(len(live))])),
		}
	}
	skel := d.Skeleton()
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ok, err := core.PiBytes(codec, skel, p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		sink = sink != ok
	}
	_ = sink
}

// BenchmarkDerivationLabeling measures end-to-end derivation-based
// labeling throughput (per run vertex).
func BenchmarkDerivationLabeling(b *testing.B) {
	_, r, _ := benchSetup(b, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Size()), "ns/vertex")
}

// BenchmarkExecutionInsert measures per-insertion cost of the
// execution-based labeler (the paper's O(1)-per-insertion claim).
func BenchmarkExecutionInsert(b *testing.B) {
	g, _, evs := benchSetup(b, 8192)
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		if _, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated); err != nil {
			b.Fatal(err)
		}
		events += len(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/insert")
}
