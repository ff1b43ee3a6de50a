package bench

import (
	"fmt"
	"time"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/label"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// AblationR quantifies the value of R-node compression (Section 6):
// on a linear recursive workflow driven into deep recursion, the
// designated-R mode keeps the explicit parse tree depth constant and
// labels logarithmic, while the no-R mode's depth — and with it the
// label length — grows with the recursion depth.
func AblationR(cfg Config) *Table {
	cfg = cfg.normalized()
	// The Figure 13 synthetic family with copies capped, so the size
	// budget flows into recursion depth rather than loop width.
	g := spec.MustCompile(wfspecs.Synthetic(wfspecs.SyntheticParams{
		SubSize: 10, Depth: 5, RecModules: 1, Seed: 23,
	}))
	cod := label.NewCodec(g)
	t := &Table{
		ID:    "ablR",
		Title: "Ablation: R-node compression (deep-recursion synthetic runs)",
		Columns: []string{"run size", "designated-R max bits", "designated-R tree depth",
			"no-R max bits", "no-R tree depth"},
		Notes: []string{
			"Designated-R realizes Lemma 4.1's constant depth bound; without R nodes the tree deepens with recursion and labels lose their O(log n) guarantee (Section 6).",
		},
	}
	for _, n := range cfg.sizes() {
		r := gen.MustGenerate(g, gen.Options{
			TargetSize: n, Seed: int64(11 * n), DepthFirst: true, MaxCopies: 2,
		})
		row := []string{sizeName(n)}
		for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
			d, err := core.LabelRun(r, skeleton.TCL, mode)
			if err != nil {
				panic(err)
			}
			mb, _ := labelStats(d, r, cod)
			row = append(row, fmt.Sprintf("%d", mb), fmt.Sprintf("%d", d.Tree().Depth()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AblationEncoding compares the paper's word-RAM label accounting
// (BitLen) with the actual self-delimiting wire format (EncodedBits):
// the framing costs a constant ~5 bits per level plus byte padding.
func AblationEncoding(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAID())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "ablEnc",
		Title:   "Ablation: label accounting vs wire encoding (BioAID)",
		Columns: []string{"run size", "avg BitLen", "avg wire bits", "overhead (bits)"},
		Notes: []string{
			"BitLen is Theorem 3's accounting (type + index value bits + skeleton pointer + recursion flags); the wire codec replaces each index's value bits by its order-2 Exp-Golomb code and adds an order-1 Exp-Golomb entry count and byte padding, so stored labels are self-delimiting.",
		},
	}
	for _, n := range cfg.sizes() {
		r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(13 * n)})
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		var acc, wire, cnt int
		for _, v := range r.Graph.LiveVertices() {
			l := d.MustLabel(v)
			acc += cod.BitLen(l)
			wire += cod.EncodedBits(l)
			cnt++
		}
		t.Rows = append(t.Rows, []string{
			sizeName(n),
			fmt.Sprintf("%.1f", float64(acc)/float64(cnt)),
			fmt.Sprintf("%.1f", float64(wire)/float64(cnt)),
			fmt.Sprintf("%.1f", float64(wire-acc)/float64(cnt)),
		})
	}
	return t
}

// AblationSkeleton isolates the skeleton-scheme choice (Section 7.1's
// TCL vs BFS): storage, labeling-time and query-time impact on one
// representative run.
func AblationSkeleton(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.BioAID())
	n := 8192
	if cfg.Quick {
		n = 1024
	}
	r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: 123})
	pairs := randomPairs(r, cfg.Queries, 5)
	t := &Table{
		ID:      "ablSkel",
		Title:   fmt.Sprintf("Ablation: skeleton scheme (BioAID, %s run)", sizeName(n)),
		Columns: []string{"skeleton", "skeleton bits", "construction (ms)", "query (ns)"},
		Notes: []string{
			"TCL stores n(n-1)/2 bits per specification graph for O(1) skeleton queries; BFS stores nothing and searches the (small) sub-workflow per query. Construction also consults the skeleton for recursion flags (Algorithm 1, lines 9-10).",
		},
	}
	for _, kind := range []skeleton.Kind{skeleton.TCL, skeleton.BFS} {
		var d *core.DerivationLabeler
		var err error
		start := time.Now()
		for s := 0; s < cfg.Samples; s++ {
			if d, err = core.LabelRun(r, kind, core.RModeDesignated); err != nil {
				panic(err)
			}
		}
		build := time.Since(start) / time.Duration(cfg.Samples)
		q := drlQueryTimer(d, pairs)
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmt.Sprintf("%d", d.Skeleton().Bits()),
			fmt.Sprintf("%.2f", float64(build.Microseconds())/1000),
			fmt.Sprintf("%d", q.Nanoseconds()),
		})
	}
	return t
}

// Example15 demonstrates the open-boundary case of Section 6: the
// Figure 12 grammar is nonlinear (no compact derivation-based scheme
// exists, Theorem 4), yet its runs are simple paths and the naive
// index scheme labels them compactly on the fly — while adapted DRL
// pays linear-size labels on deep derivations.
func Example15(cfg Config) *Table {
	cfg = cfg.normalized()
	g := spec.MustCompile(wfspecs.Fig12())
	cod := label.NewCodec(g)
	t := &Table{
		ID:      "ex15",
		Title:   "Example 15: Figure 12 path runs — index scheme vs adapted DRL",
		Columns: []string{"run size", "index scheme max bits", "adapted DRL max bits"},
		Notes: []string{
			"Nonlinear series recursion sometimes admits compact execution-based labeling (Example 15); whether all non-parallel recursive workflows do is the paper's open problem.",
		},
	}
	sizes := cfg.sizes()
	if len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		r := gen.MustGenerate(g, gen.Options{TargetSize: n, Seed: int64(n), DepthFirst: true})
		evs, err := r.Execution(nil)
		if err != nil {
			panic(err)
		}
		p := newPathLabeler()
		for _, ev := range evs {
			if _, err := p.insert(ev.V, ev.Preds); err != nil {
				panic(err)
			}
		}
		d, err := core.LabelRun(r, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			panic(err)
		}
		mb, _ := labelStats(d, r, cod)
		t.Rows = append(t.Rows, []string{
			sizeName(r.Size()), fmt.Sprintf("%d", p.maxBits()), fmt.Sprintf("%d", mb),
		})
	}
	return t
}
