// Package bench is the experiment harness reproducing the paper's
// evaluation (Section 7): every figure and table has a generator that
// builds the paper's workload, measures the same quantities, and
// renders a table with the measured series next to the paper's
// reference expectations. cmd/wfbench drives the full suite. The
// schemes the paper measures DRL against live here, unexported: the
// static SKL baseline (skl.go), the Θ(n) general-DAG scheme (tcldyn.go)
// and Example 15's path-position labeler (pathlabel.go).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// Config sizes the experiments. The paper averages label/time results
// over 10^3 runs and query times over 10^5 queries; the defaults are
// lighter so the suite completes in seconds, and Quick trims further
// for smoke tests.
type Config struct {
	// Samples is the number of random runs averaged per data point.
	Samples int
	// Queries is the number of random reachability queries per
	// query-time measurement.
	Queries int
	// MaxSize is the largest run size of the 1K..32K sweeps.
	MaxSize int
	// Quick trims sweeps to two points for smoke tests.
	Quick bool
}

func (c Config) normalized() Config {
	if c.Samples <= 0 {
		c.Samples = 3
	}
	if c.Queries <= 0 {
		c.Queries = 10000
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 32 * 1024
	}
	return c
}

// sizes returns the run-size sweep 1K, 2K, ..., MaxSize (Section 7.1:
// "we vary the size of runs from 1K to 32K by a factor of 2").
func (c Config) sizes() []int {
	var out []int
	for n := 1024; n <= c.MaxSize; n *= 2 {
		out = append(out, n)
	}
	if c.Quick && len(out) > 2 {
		out = []int{out[0], out[len(out)-1]}
	}
	return out
}

// Table is one rendered experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as Markdown.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as RFC-4180-ish CSV (plot-ready: one
// header line, one line per row; notes are omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// labelStats measures max and average encoded label length over the
// live vertices of a labeled run.
func labelStats(d *core.DerivationLabeler, r *run.Run, cod *label.Codec) (maxBits int, avgBits float64) {
	total := 0
	count := 0
	for _, v := range r.Graph.LiveVertices() {
		b := cod.BitLen(d.MustLabel(v))
		if b > maxBits {
			maxBits = b
		}
		total += b
		count++
	}
	if count > 0 {
		avgBits = float64(total) / float64(count)
	}
	return maxBits, avgBits
}

func sizeName(n int) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// Fig14 — BioAID label length versus run size, against the paper's
// asymptote f(n) = log n + 13 (both max and average grow as
// c·log n + O(1) with c close to 1 and a small constant max-avg gap).
func Fig14(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAID())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "fig14",
		Title:   "BioAID label length vs run size (bits)",
		Columns: []string{"run size", "avg length", "max length", "log2(n)+13 (paper ref)"},
		Notes: []string{
			"Paper: both curves grow logarithmically, roughly parallel to log(n)+13, with a small constant max-avg gap (Fig. 14).",
		},
	}
	for _, n := range cfg.sizes() {
		var maxB, sumAvg float64
		for s := 0; s < cfg.Samples; s++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(n + s)})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			mb, ab := labelStats(d, r, cod)
			if float64(mb) > maxB {
				maxB = float64(mb)
			}
			sumAvg += ab
		}
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%.1f", sumAvg/float64(cfg.Samples)),
			fmt.Sprintf("%.0f", maxB),
			fmt.Sprintf("%.1f", math.Log2(float64(n))+13),
		})
	}
	return t
}

// Fig15 — BioAID total construction time for the derivation-based and
// execution-based schemes (linear in run size; derivation-based
// faster).
func Fig15(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAID())
	t := &Table{
		ID:      "fig15",
		Title:   "BioAID total construction time vs run size",
		Columns: []string{"run size", "derivation-based (ms)", "execution-based (ms)", "per-vertex deriv (µs)"},
		Notes: []string{
			"Paper: both grow linearly with run size; derivation-based is faster since the execution-based scheme must locate each vertex's context and origin (Fig. 15).",
		},
	}
	for _, n := range cfg.sizes() {
		var dTot, eTot time.Duration
		for s := 0; s < cfg.Samples; s++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(2*n + s)})
			evs, err := r.Execution(nil)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			if _, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated); err != nil {
				panic(err)
			}
			dTot += time.Since(start)
			start = time.Now()
			if _, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated); err != nil {
				panic(err)
			}
			eTot += time.Since(start)
		}
		dMs := float64(dTot.Microseconds()) / 1000 / float64(cfg.Samples)
		eMs := float64(eTot.Microseconds()) / 1000 / float64(cfg.Samples)
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%.2f", dMs),
			fmt.Sprintf("%.2f", eMs),
			fmt.Sprintf("%.3f", dMs*1000/float64(n)),
		})
	}
	return t
}

// drlQueryTimer measures π on prefetched DRL labels — the paper's
// setting, where the querier holds two labels and decides reachability
// from them alone. The labels are encoded as the service stores them,
// and π is the service's: PiBytes on the two encodings.
func drlQueryTimer(c *label.Codec, d *core.DerivationLabeler, pairs [][2]graph.VertexID) time.Duration {
	ls := make([][2][]byte, len(pairs))
	for i, p := range pairs {
		ls[i] = [2][]byte{c.Encode(d.MustLabel(p[0])), c.Encode(d.MustLabel(p[1]))}
	}
	skel := d.Skeleton()
	sink := false
	start := time.Now()
	for i := range ls {
		ok, err := core.PiBytes(c, skel, ls[i][0], ls[i][1])
		if err != nil {
			panic(err) // the labels were encoded by c just above
		}
		sink = sink != ok
	}
	elapsed := time.Since(start)
	_ = sink
	return elapsed / time.Duration(len(pairs))
}

// sklQueryTimer measures SKL's π on prefetched labels.
func sklQueryTimer(s *sklScheme, pairs [][2]graph.VertexID) time.Duration {
	ls := make([][2]*sklLabel, len(pairs))
	for i, p := range pairs {
		ls[i] = [2]*sklLabel{s.mustLabel(p[0]), s.mustLabel(p[1])}
	}
	sink := false
	start := time.Now()
	for i := range ls {
		sink = sink != s.pi(ls[i][0], ls[i][1])
	}
	elapsed := time.Since(start)
	_ = sink
	return elapsed / time.Duration(len(pairs))
}

func randomPairs(r *run.Run, n int, seed int64) [][2]graph.VertexID {
	live := r.Graph.LiveVertices()
	rng := newRand(seed)
	pairs := make([][2]graph.VertexID, n)
	for i := range pairs {
		pairs[i] = [2]graph.VertexID{live[rng.Intn(len(live))], live[rng.Intn(len(live))]}
	}
	return pairs
}

// Fig16 — BioAID query time for DRL(TCL) and DRL(BFS): flat in run
// size, DRL(TCL) slightly faster.
func Fig16(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAID())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "fig16",
		Title:   "BioAID query time vs run size",
		Columns: []string{"run size", "DRL(TCL) ns/query", "DRL(BFS) ns/query"},
		Notes: []string{
			"Paper: both are effectively constant in run size because skeleton graphs are small and fixed; DRL(TCL) is slightly faster than DRL(BFS) (Fig. 16).",
		},
	}
	for _, n := range cfg.sizes() {
		r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(3 * n)})
		pairs := randomPairs(r, cfg.Queries, int64(n))
		dTCL, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		dBFS, err := core.LabelRun(r, skeleton.BFS, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%d", drlQueryTimer(cod, dTCL, pairs).Nanoseconds()),
			fmt.Sprintf("%d", drlQueryTimer(cod, dBFS, pairs).Nanoseconds()),
		})
	}
	return t
}

// Fig17 — maximum label length versus sub-workflow size (linear
// recursive synthetic workflows, nesting depth 5, 5K-vertex runs):
// roughly logarithmic growth.
func Fig17(cfg Config) *Table {
	cfg = cfg.normalized()
	t := &Table{
		ID:      "fig17",
		Title:   "Max label length vs sub-workflow size (depth 5, 5K runs)",
		Columns: []string{"sub-workflow size", "max label (bits)"},
		Notes: []string{
			"Paper: grows almost logarithmically with sub-workflow size — log n_G rises while log θ_t falls slowly (Fig. 17).",
		},
	}
	sizes := []int{10, 20, 40, 80, 160}
	if cfg.Quick {
		sizes = []int{10, 80}
	}
	for _, sub := range sizes {
		maxB := 0
		for s := 0; s < cfg.Samples; s++ {
			sp := wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: sub, Depth: 5, RecModules: 1, Seed: int64(sub + s)})
			g := spec.MustCompile(sp)
			cod := label.NewCodec(g)
			r := gen.MustGenerate(g, gen.Options{TargetSize: 5120, Seed: int64(s)})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			mb, _ := labelStats(d, r, cod)
			if mb > maxB {
				maxB = mb
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", sub), fmt.Sprintf("%d", maxB)})
	}
	return t
}

// Fig18 — maximum label length versus nesting depth (sub-workflow size
// 20, 5K-vertex runs): linear growth, the dominant cost factor.
func Fig18(cfg Config) *Table {
	cfg = cfg.normalized()
	t := &Table{
		ID:      "fig18",
		Title:   "Max label length vs nesting depth (size 20, 5K runs)",
		Columns: []string{"nesting depth", "max label (bits)"},
		Notes: []string{
			"Paper: grows linearly with nesting depth — d_t is proportional to it (Fig. 18); real workflows rarely nest deeper than 5.",
		},
	}
	depths := []int{5, 10, 15, 20, 25}
	if cfg.Quick {
		depths = []int{5, 15}
	}
	for _, depth := range depths {
		maxB := 0
		for s := 0; s < cfg.Samples; s++ {
			sp := wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 20, Depth: depth, RecModules: 1, Seed: int64(depth + s)})
			g := spec.MustCompile(sp)
			cod := label.NewCodec(g)
			r := gen.MustGenerate(g, gen.Options{TargetSize: 5120, Seed: int64(s)})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			mb, _ := labelStats(d, r, cod)
			if mb > maxB {
				maxB = mb
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", depth), fmt.Sprintf("%d", maxB)})
	}
	return t
}

// Fig19 — maximum label length, linear versus nonlinear recursion
// (Figure 13 family with 1 vs 2 R modules), with the TCL n-1 line for
// scale.
func Fig19(cfg Config) *Table {
	cfg = cfg.normalized()
	t := &Table{
		ID:      "fig19",
		Title:   "Max label length: linear vs nonlinear recursion",
		Columns: []string{"run size", "linear (bits)", "nonlinear (bits)", "TCL n-1 (bits)"},
		Notes: []string{
			"Paper: nonlinear recursion produces longer labels (linear-size in the worst case, Theorem 1) yet stays far below TCL's n-1 in practice — under 120 bits at 32K (Fig. 19).",
		},
	}
	lin := spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 20, Depth: 5, RecModules: 1, Seed: 40}))
	non := spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{SubSize: 20, Depth: 5, RecModules: 2, Seed: 40}))
	codLin, codNon := label.NewCodec(lin), label.NewCodec(non)
	for _, n := range cfg.sizes() {
		maxLin, maxNon := 0, 0
		for s := 0; s < cfg.Samples; s++ {
			rl := gen.MustGenerate(lin, gen.Options{TargetSize: n, Seed: int64(n + s)})
			dl, err := core.LabelRun(rl, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			if mb, _ := labelStats(dl, rl, codLin); mb > maxLin {
				maxLin = mb
			}
			rn := gen.MustGenerate(non, gen.Options{TargetSize: n, Seed: int64(n + s)})
			dn, err := core.LabelRun(rn, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			if mb, _ := labelStats(dn, rn, codNon); mb > maxNon {
				maxNon = mb
			}
		}
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%d", maxLin),
			fmt.Sprintf("%d", maxNon),
			fmt.Sprintf("%d", n-1),
		})
	}
	return t
}

// Fig20 — DRL versus SKL maximum label length on the de-recursed
// BioAID: DRL's slope is ~1·log n against SKL's ~3·log n, crossing
// over at small run sizes.
func Fig20(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAIDNonRecursive())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "fig20",
		Title:   "DRL vs SKL max label length (bits, non-recursive BioAID)",
		Columns: []string{"run size", "DRL (dynamic)", "SKL (static)"},
		Notes: []string{
			"Paper: SKL's logarithmic term has factor 3 vs DRL's ≈1, so DRL wins for runs beyond ~1.5K and by a factor approaching 3 asymptotically (Fig. 20).",
		},
	}
	for _, n := range cfg.sizes() {
		maxDRL, maxSKL := 0, 0
		for s := 0; s < cfg.Samples; s++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(5*n + s)})
			d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
			if err != nil {
				panic(err)
			}
			if mb, _ := labelStats(d, r, cod); mb > maxDRL {
				maxDRL = mb
			}
			sk, err := buildSKL(r, skeleton.TCL)
			if err != nil {
				panic(err)
			}
			for _, v := range r.Graph.LiveVertices() {
				if b := sk.bitLen(sk.mustLabel(v)); b > maxSKL {
					maxSKL = b
				}
			}
		}
		t.Rows = append(t.Rows, []string{sizeName(n), fmt.Sprintf("%d", maxDRL), fmt.Sprintf("%d", maxSKL)})
	}
	return t
}

// Fig21 — construction time: derivation-based DRL, execution-based
// DRL, and static SKL (SKL faster per vertex, but only usable once the
// run has completed).
func Fig21(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAIDNonRecursive())
	t := &Table{
		ID:      "fig21",
		Title:   "Construction time: DRL vs SKL (non-recursive BioAID)",
		Columns: []string{"run size", "DRL derivation (ms)", "DRL execution (ms)", "SKL static (ms)"},
		Notes: []string{
			"Paper: SKL builds simpler labels and is ~2× faster than derivation-based and ~4× faster than execution-based DRL — but cannot start until the run completes (Fig. 21).",
		},
	}
	for _, n := range cfg.sizes() {
		var dTot, eTot, sTot time.Duration
		for s := 0; s < cfg.Samples; s++ {
			r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(7*n + s)})
			evs, err := r.Execution(nil)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			if _, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated); err != nil {
				panic(err)
			}
			dTot += time.Since(start)
			start = time.Now()
			if _, err := core.LabelExecution(g, evs, skeleton.TCL, core.RModeDesignated); err != nil {
				panic(err)
			}
			eTot += time.Since(start)
			start = time.Now()
			if _, err := buildSKL(r, skeleton.TCL); err != nil {
				panic(err)
			}
			sTot += time.Since(start)
		}
		f := func(d time.Duration) string {
			return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000/float64(cfg.Samples))
		}
		t.Rows = append(t.Rows, []string{sizeName(n), f(dTot), f(eTot), f(sTot)})
	}
	return t
}

// Fig22 — query time for the four scheme/skeleton combinations.
func Fig22(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAIDNonRecursive())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "fig22",
		Title:   "Query time: DRL vs SKL × TCL vs BFS (ns/query)",
		Columns: []string{"run size", "DRL(TCL)", "DRL(BFS)", "SKL(TCL)", "SKL(BFS)"},
		Notes: []string{
			"Paper: SKL(BFS) searches the 106-vertex global specification and is ~10× slower than DRL(BFS), which searches one ~10-vertex sub-workflow; with TCL skeletons both are fast, SKL(TCL) slightly ahead (Fig. 22).",
		},
	}
	for _, n := range cfg.sizes() {
		r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(9 * n)})
		pairs := randomPairs(r, cfg.Queries, int64(n+1))
		dTCL, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		dBFS, err := core.LabelRun(r, skeleton.BFS, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		sTCL, err := buildSKL(r, skeleton.TCL)
		if err != nil {
			panic(err)
		}
		sBFS, err := buildSKL(r, skeleton.BFS)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%d", drlQueryTimer(cod, dTCL, pairs).Nanoseconds()),
			fmt.Sprintf("%d", drlQueryTimer(cod, dBFS, pairs).Nanoseconds()),
			fmt.Sprintf("%d", sklQueryTimer(sTCL, pairs).Nanoseconds()),
			fmt.Sprintf("%d", sklQueryTimer(sBFS, pairs).Nanoseconds()),
		})
	}
	return t
}

// Table2 — overhead of labeling the specification: total skeleton
// space and construction time for DRL(TCL) (per-sub-workflow skeletons
// of the recursive BioAID) versus SKL(TCL) (the 106-vertex global
// specification).
func Table2(cfg Config) *Table {
	cfg = cfg.normalized()
	gRec := spec.MustCompile(wfspecs.BioAID())
	gNon := spec.MustCompile(wfspecs.BioAIDNonRecursive())
	reps := 500

	// Minimum over repetitions: the steady-state cost, robust against
	// GC pauses from neighboring experiments.
	minTime := func(f func()) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	var drlBits int
	drlTime := minTime(func() {
		sch := skeleton.New(skeleton.TCL, gRec)
		drlBits = sch.Bits()
	})

	in, err := gNon.InlineAll()
	if err != nil {
		panic(err)
	}
	var sklBits int
	sklTime := minTime(func() {
		gs := skeleton.NewGraphScheme(skeleton.TCL, in.Graph)
		sklBits = gs.Bits()
	})

	return &Table{
		ID:      "table2",
		Title:   "Overhead of labeling the specification",
		Columns: []string{"scheme", "total space (bits)", "construction time (µs)"},
		Rows: [][]string{
			{"DRL(TCL)", fmt.Sprintf("%d", drlBits), fmt.Sprintf("%.2f", float64(drlTime.Nanoseconds())/1000)},
			{"SKL(TCL)", fmt.Sprintf("%d", sklBits), fmt.Sprintf("%.2f", float64(sklTime.Nanoseconds())/1000)},
		},
		Notes: []string{
			"Paper (Table 2): DRL(TCL) 650 bits / 43.75 µs; SKL(TCL) 5565 bits / 163.28 µs. The global inlined specification has 106 vertices, so SKL's triangular skeleton is exactly 106·105/2 = 5565 bits; DRL labels each sub-workflow separately.",
		},
	}
}

// Fig01 — the compactness landscape of Figure 1, demonstrated
// empirically: maximum label length by graph class and scheme as run
// size grows. Θ(log n) classes stay flat-ish on the log scale; Θ(n)
// classes grow linearly.
func Fig01(cfg Config) *Table {
	cfg = cfg.normalized()
	t := &Table{
		ID:    "fig01",
		Title: "Compactness by class (max label bits)",
		Columns: []string{
			"run size",
			"static run / SKL (Θ(log n))",
			"dynamic linear-recursive / DRL (Θ(log n))",
			"dynamic recursive / DRL (Θ(n))",
			"dynamic DAG / TCL (n-1)",
		},
		Notes: []string{
			"Figure 1's landscape: static runs and dynamic linear-recursive runs admit Θ(log n) labels; dynamic recursive runs and general dynamic DAGs require Θ(n) (Theorems 1-5).",
		},
	}
	linG := spec.MustCompile(wfspecs.BioAID())
	linCod := label.NewCodec(linG)
	nonG := spec.MustCompile(wfspecs.Fig6())
	nonCod := label.NewCodec(nonG)
	sklG := spec.MustCompile(wfspecs.BioAIDNonRecursive())

	sizes := cfg.sizes()
	if len(sizes) > 4 && !cfg.Quick {
		sizes = []int{sizes[0], sizes[1], sizes[len(sizes)/2], sizes[len(sizes)-1]}
	}
	for _, n := range sizes {
		// SKL on a static non-recursive run.
		rs := gen.MustGenerate(sklG, gen.Options{TargetSize: n, Seed: int64(n)})
		sk, err := buildSKL(rs, skeleton.TCL)
		if err != nil {
			panic(err)
		}
		maxSKL := 0
		for _, v := range rs.Graph.LiveVertices() {
			if b := sk.bitLen(sk.mustLabel(v)); b > maxSKL {
				maxSKL = b
			}
		}
		// DRL on a linear recursive run.
		rl := gen.MustGenerate(linG, gen.Options{TargetSize: n, Seed: int64(n)})
		dl, err := core.LabelRun(rl, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		maxLin, _ := labelStats(dl, rl, linCod)
		// DRL (adapted) on the Figure 6 lower-bound grammar, driven by
		// a depth-first derivation (the adversarial shape of Theorem 1;
		// balanced random derivations would stay shallow).
		rn := gen.MustGenerate(nonG, gen.Options{TargetSize: n, Seed: int64(n), DepthFirst: true})
		dn, err := core.LabelRun(rn, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		maxNon, _ := labelStats(dn, rn, nonCod)
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%d", maxSKL),
			fmt.Sprintf("%d", maxLin),
			fmt.Sprintf("%d", maxNon),
			fmt.Sprintf("%d", n-1),
		})
	}
	// The TCL column is exact by construction; demonstrate it once.
	_, _ = newTCLLabeler().insert(0, nil)
	return t
}
