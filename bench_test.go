// Benchmarks regenerating the paper's evaluation of DRL (Section 7),
// one per figure, through the public API. Time-based figures report
// ns/op directly; label length figures attach bits as custom metrics
// (max_bits, avg_bits). The figures and tables that set DRL against the
// SKL and TCL baselines (Figures 1, 20–22, Table 2) are benchmarked in
// internal/bench, next to the baselines; the full paper-style sweeps
// with all data points are produced by cmd/wfbench.
package wfreach_test

import (
	"math/rand"
	"testing"

	"wfreach"
)

const benchRunSize = 8192

func benchRun(b *testing.B, s *wfreach.Spec, size int, seed int64) (*wfreach.Grammar, *wfreach.Run) {
	b.Helper()
	g, err := wfreach.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	r, err := wfreach.Generate(g, wfreach.GenOptions{TargetSize: size, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return g, r
}

func reportLabelBits(b *testing.B, g *wfreach.Grammar, d *wfreach.DerivationLabeler, r *wfreach.Run) {
	b.Helper()
	codec := wfreach.NewLabelCodec(g)
	maxBits, total, n := 0, 0, 0
	for _, v := range r.Graph.LiveVertices() {
		bits := codec.BitLen(d.MustLabel(v))
		if bits > maxBits {
			maxBits = bits
		}
		total += bits
		n++
	}
	b.ReportMetric(float64(maxBits), "max_bits")
	b.ReportMetric(float64(total)/float64(n), "avg_bits")
}

// BenchmarkFig14LabelLength labels a BioAID run and reports the
// logarithmic label sizes of Figure 14.
func BenchmarkFig14LabelLength(b *testing.B) {
	g, r := benchRun(b, wfreach.BioAID(), benchRunSize, 14)
	var d *wfreach.DerivationLabeler
	var err error
	for i := 0; i < b.N; i++ {
		if d, err = wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated); err != nil {
			b.Fatal(err)
		}
	}
	reportLabelBits(b, g, d, r)
}

// BenchmarkFig15Construction compares total construction time of the
// derivation-based and execution-based labelers (Figure 15).
func BenchmarkFig15Construction(b *testing.B) {
	g, r := benchRun(b, wfreach.BioAID(), benchRunSize, 15)
	evs, err := r.Execution(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("derivation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Size()), "ns/vertex")
	})
	b.Run("execution", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wfreach.LabelExecution(g, evs, wfreach.TCL, wfreach.RModeDesignated); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Size()), "ns/vertex")
	})
}

func queryBench(b *testing.B, r *wfreach.Run, reach func(v, w wfreach.VertexID) bool) {
	b.Helper()
	live := r.Graph.LiveVertices()
	rng := rand.New(rand.NewSource(16))
	pairs := make([][2]wfreach.VertexID, 4096)
	for i := range pairs {
		pairs[i] = [2]wfreach.VertexID{live[rng.Intn(len(live))], live[rng.Intn(len(live))]}
	}
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = sink != reach(p[0], p[1])
	}
	_ = sink
}

// BenchmarkFig16QueryTime measures constant-time queries for DRL under
// both skeleton schemes (Figure 16).
func BenchmarkFig16QueryTime(b *testing.B) {
	g, r := benchRun(b, wfreach.BioAID(), benchRunSize, 16)
	_ = g
	for _, kind := range []wfreach.SkeletonKind{wfreach.TCL, wfreach.BFS} {
		d, err := wfreach.LabelRun(r, kind, wfreach.RModeDesignated)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("DRL-"+kind.String(), func(b *testing.B) { queryBench(b, r, d.Reach) })
	}
}

// BenchmarkFig17VaryingSize sweeps the sub-workflow size (Figure 17).
func BenchmarkFig17VaryingSize(b *testing.B) {
	for _, sub := range []int{10, 40, 160} {
		b.Run(sizeTag("sub", sub), func(b *testing.B) {
			s := wfreach.Synthetic(wfreach.SyntheticParams{SubSize: sub, Depth: 5, RecModules: 1, Seed: int64(sub)})
			g, r := benchRun(b, s, 5120, 17)
			var d *wfreach.DerivationLabeler
			var err error
			for i := 0; i < b.N; i++ {
				if d, err = wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated); err != nil {
					b.Fatal(err)
				}
			}
			reportLabelBits(b, g, d, r)
		})
	}
}

// BenchmarkFig18VaryingDepth sweeps the nesting depth (Figure 18).
func BenchmarkFig18VaryingDepth(b *testing.B) {
	for _, depth := range []int{5, 15, 25} {
		b.Run(sizeTag("depth", depth), func(b *testing.B) {
			s := wfreach.Synthetic(wfreach.SyntheticParams{SubSize: 20, Depth: depth, RecModules: 1, Seed: int64(depth)})
			g, r := benchRun(b, s, 5120, 18)
			var d *wfreach.DerivationLabeler
			var err error
			for i := 0; i < b.N; i++ {
				if d, err = wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated); err != nil {
					b.Fatal(err)
				}
			}
			reportLabelBits(b, g, d, r)
		})
	}
}

// BenchmarkFig19Nonlinear compares linear and nonlinear recursion
// (Figure 19).
func BenchmarkFig19Nonlinear(b *testing.B) {
	for _, rec := range []int{1, 2} {
		name := "linear"
		if rec == 2 {
			name = "nonlinear"
		}
		b.Run(name, func(b *testing.B) {
			s := wfreach.Synthetic(wfreach.SyntheticParams{SubSize: 20, Depth: 5, RecModules: rec, Seed: 40})
			g, r := benchRun(b, s, benchRunSize, 19)
			var d *wfreach.DerivationLabeler
			var err error
			for i := 0; i < b.N; i++ {
				if d, err = wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated); err != nil {
					b.Fatal(err)
				}
			}
			reportLabelBits(b, g, d, r)
		})
	}
}

func sizeTag(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
