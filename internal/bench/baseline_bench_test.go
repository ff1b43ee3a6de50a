package bench

import (
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// The Go benchmarks of the figures and tables that set DRL against the
// SKL and TCL baselines (Figures 1, 20–22, Table 2); the DRL-only ones
// are the root package's. cmd/wfbench produces the full sweeps.

const baselineRunSize = 8192

func baselineRun(b *testing.B, s *spec.Spec, size int, seed int64) (*spec.Grammar, *run.Run) {
	b.Helper()
	g, err := spec.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	r, err := gen.Generate(g, gen.Options{TargetSize: size, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return g, r
}

func labelRun(b *testing.B, r *run.Run, kind skeleton.Kind) *core.DerivationLabeler {
	b.Helper()
	d, err := core.LabelRun(r, kind, core.RModeDesignated)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func reportDRLBits(b *testing.B, g *spec.Grammar, d *core.DerivationLabeler, r *run.Run) {
	b.Helper()
	maxBits, avgBits := labelStats(d, r, label.NewCodec(g))
	b.ReportMetric(float64(maxBits), "max_bits")
	b.ReportMetric(avgBits, "avg_bits")
}

func reportSKLBits(b *testing.B, s *sklScheme, r *run.Run) {
	b.Helper()
	maxBits := 0
	for _, v := range r.Graph.LiveVertices() {
		maxBits = max(maxBits, s.bitLen(s.mustLabel(v)))
	}
	b.ReportMetric(float64(maxBits), "max_bits")
}

func benchSKL(b *testing.B, r *run.Run, kind skeleton.Kind) *sklScheme {
	b.Helper()
	s, err := buildSKL(r, kind)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func queryBench(b *testing.B, r *run.Run, reach func(v, w graph.VertexID) bool) {
	b.Helper()
	pairs := randomPairs(r, 4096, 16)
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = sink != reach(p[0], p[1])
	}
	_ = sink
}

// BenchmarkFig01Compactness measures the maximum label length per
// graph class (Figure 1's landscape): Θ(log n) for static and dynamic
// linear-recursive runs, Θ(n) for dynamic recursive runs and DAGs.
func BenchmarkFig01Compactness(b *testing.B) {
	b.Run("linear-DRL", func(b *testing.B) {
		g, r := baselineRun(b, wfspecs.BioAID(), 4096, 1)
		var d *core.DerivationLabeler
		for i := 0; i < b.N; i++ {
			d = labelRun(b, r, skeleton.TCL)
		}
		reportDRLBits(b, g, d, r)
	})
	b.Run("recursive-DRL", func(b *testing.B) {
		g := spec.MustCompile(wfspecs.Fig6())
		r, err := gen.Generate(g, gen.Options{TargetSize: 4096, Seed: 1, DepthFirst: true})
		if err != nil {
			b.Fatal(err)
		}
		var d *core.DerivationLabeler
		for i := 0; i < b.N; i++ {
			d = labelRun(b, r, skeleton.TCL)
		}
		reportDRLBits(b, g, d, r)
	})
	b.Run("dag-TCL", func(b *testing.B) {
		_, r := baselineRun(b, wfspecs.BioAID(), 4096, 1)
		evs, err := r.Execution(nil)
		if err != nil {
			b.Fatal(err)
		}
		var maxBits int
		for i := 0; i < b.N; i++ {
			l := newTCLLabeler()
			for _, ev := range evs {
				if _, err := l.insert(ev.V, ev.Preds); err != nil {
					b.Fatal(err)
				}
			}
			maxBits = l.maxBits()
		}
		b.ReportMetric(float64(maxBits), "max_bits")
	})
}

// BenchmarkTable2SpecOverhead times labeling the specification itself
// and reports the skeleton sizes of Table 2.
func BenchmarkTable2SpecOverhead(b *testing.B) {
	b.Run("DRL-TCL", func(b *testing.B) {
		g := spec.MustCompile(wfspecs.BioAID())
		bits := 0
		for i := 0; i < b.N; i++ {
			d := core.NewDerivationLabeler(g, skeleton.TCL, core.RModeDesignated)
			bits = d.Skeleton().Bits()
		}
		b.ReportMetric(float64(bits), "skeleton_bits")
	})
	b.Run("SKL-TCL", func(b *testing.B) {
		// The full static build over a minimal run, which includes
		// inlining the global specification and labeling its 106
		// vertices (the 5565-bit skeleton of Table 2). `wfbench -only
		// table2` isolates the skeleton-only cost.
		_, r := baselineRun(b, wfspecs.BioAIDNonRecursive(), 1024, 1)
		var bits int
		for i := 0; i < b.N; i++ {
			bits = benchSKL(b, r, skeleton.TCL).skeletonBits()
		}
		b.ReportMetric(float64(bits), "skeleton_bits")
	})
}

// BenchmarkFig20DRLvsSKL compares maximum label lengths (Figure 20).
func BenchmarkFig20DRLvsSKL(b *testing.B) {
	g, r := baselineRun(b, wfspecs.BioAIDNonRecursive(), baselineRunSize, 20)
	b.Run("DRL", func(b *testing.B) {
		var d *core.DerivationLabeler
		for i := 0; i < b.N; i++ {
			d = labelRun(b, r, skeleton.TCL)
		}
		reportDRLBits(b, g, d, r)
	})
	b.Run("SKL", func(b *testing.B) {
		var s *sklScheme
		for i := 0; i < b.N; i++ {
			s = benchSKL(b, r, skeleton.TCL)
		}
		reportSKLBits(b, s, r)
	})
}

// BenchmarkFig21Construction compares construction times of DRL (both
// variants) and SKL (Figure 21).
func BenchmarkFig21Construction(b *testing.B) {
	g, r := baselineRun(b, wfspecs.BioAIDNonRecursive(), baselineRunSize, 21)
	evs, err := r.Execution(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DRL-derivation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			labelRun(b, r, skeleton.TCL)
		}
	})
	b.Run("DRL-execution", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SKL-static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSKL(b, r, skeleton.TCL)
		}
	})
}

// BenchmarkFig22QueryTime measures all four scheme/skeleton query
// combinations (Figure 22).
func BenchmarkFig22QueryTime(b *testing.B) {
	_, r := baselineRun(b, wfspecs.BioAIDNonRecursive(), baselineRunSize, 22)
	dTCL, dBFS := labelRun(b, r, skeleton.TCL), labelRun(b, r, skeleton.BFS)
	sTCL, sBFS := benchSKL(b, r, skeleton.TCL), benchSKL(b, r, skeleton.BFS)
	b.Run("DRL-TCL", func(b *testing.B) { queryBench(b, r, dTCL.Reach) })
	b.Run("DRL-BFS", func(b *testing.B) { queryBench(b, r, dBFS.Reach) })
	b.Run("SKL-TCL", func(b *testing.B) { queryBench(b, r, sTCL.reach) })
	b.Run("SKL-BFS", func(b *testing.B) { queryBench(b, r, sBFS.reach) })
}
