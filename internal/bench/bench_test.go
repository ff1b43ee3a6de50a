package bench_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"wfreach/internal/bench"
)

func quickCfg() bench.Config {
	return bench.Config{Samples: 1, Queries: 2000, MaxSize: 4096, Quick: true}
}

func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := all(quickCfg())
	if len(tables) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(tables))
	}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Fatalf("table %q is empty", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
			}
		}
		var buf bytes.Buffer
		tb.Render(&buf)
		if !strings.Contains(buf.String(), "|") {
			t.Fatalf("table %s did not render", tb.ID)
		}
	}
}

// numAt parses the numeric cell at rows[r][c].
func numAt(t *testing.T, tb *bench.Table, r, c int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[r][c], "K")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric", tb.ID, r, c, tb.Rows[r][c])
	}
	return v
}

// TestFig14Shape: DRL label growth is logarithmic — quadrupling the
// run size must add only a handful of bits, nowhere near linear
// growth.
func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb := bench.Fig14(bench.Config{Samples: 2, Queries: 1, MaxSize: 8192})
	first := numAt(t, tb, 0, 2)
	last := numAt(t, tb, len(tb.Rows)-1, 2)
	if last < first {
		t.Fatalf("max label shrank: %v -> %v", first, last)
	}
	if last > first+40 {
		t.Fatalf("max label grew too fast for O(log n): %v -> %v over 8x size", first, last)
	}
}

// TestFig20Shape: SKL labels are longer than DRL labels for large runs
// (the paper's factor-3 headline).
func TestFig20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb := bench.Fig20(bench.Config{Samples: 2, Queries: 1, MaxSize: 16384})
	lastRow := len(tb.Rows) - 1
	drl := numAt(t, tb, lastRow, 1)
	skl := numAt(t, tb, lastRow, 2)
	if skl <= drl {
		t.Fatalf("SKL (%v bits) should exceed DRL (%v bits) at 16K", skl, drl)
	}
}

// TestFig19Shape: nonlinear recursion costs more than linear but far
// less than TCL's n-1.
func TestFig19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb := bench.Fig19(bench.Config{Samples: 1, Queries: 1, MaxSize: 8192})
	lastRow := len(tb.Rows) - 1
	lin := numAt(t, tb, lastRow, 1)
	non := numAt(t, tb, lastRow, 2)
	tcl := numAt(t, tb, lastRow, 3)
	if non < lin {
		t.Fatalf("nonlinear (%v) should not beat linear (%v)", non, lin)
	}
	if non >= tcl/4 {
		t.Fatalf("nonlinear (%v) should stay well below TCL's n-1 (%v)", non, tcl)
	}
}

// TestTable2Exact: the skeleton space is reproduced exactly for SKL
// (5565 bits: the 106-vertex global specification).
func TestTable2Exact(t *testing.T) {
	tb := bench.Table2(bench.Config{Samples: 1, Queries: 1, MaxSize: 1024})
	if tb.Rows[1][1] != "5565" {
		t.Fatalf("SKL skeleton bits = %s, want 5565", tb.Rows[1][1])
	}
	drl := numAt(t, tb, 0, 1)
	if drl <= 0 || drl >= 5565 {
		t.Fatalf("DRL skeleton bits = %v, want small and below SKL's", drl)
	}
}

// TestFig01Shape: the Θ(n) classes dwarf the Θ(log n) classes at the
// largest size, and TCL's bound is exactly n-1.
func TestFig01Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb := bench.Fig01(bench.Config{Samples: 1, Queries: 1, MaxSize: 8192, Quick: true})
	lastRow := len(tb.Rows) - 1
	sklBits := numAt(t, tb, lastRow, 1)
	drlBits := numAt(t, tb, lastRow, 2)
	recBits := numAt(t, tb, lastRow, 3)
	tclBits := numAt(t, tb, lastRow, 4)
	// Θ(n) vs Θ(log n): the recursive class must dwarf the linear one.
	if recBits < 8*drlBits {
		t.Fatalf("recursive class (%v) should dwarf linear class (%v)", recBits, drlBits)
	}
	// TCL's upper bound is exactly n-1 by construction.
	if tclBits != 8192-1 {
		t.Fatalf("TCL column = %v, want 8191", tclBits)
	}
	// Both Θ(n) witnesses scale with n (within constant factors).
	if recBits < tclBits/4 {
		t.Fatalf("recursive class (%v) should be within a constant of n (%v)", recBits, tclBits)
	}
	if sklBits <= 0 || drlBits <= 0 {
		t.Fatal("compact classes must have positive label sizes")
	}
}

// all runs the full experiment suite: the paper's figures and tables
// in paper order, followed by this repository's ablations and the
// Example 15 demonstration.
func all(cfg bench.Config) []*bench.Table {
	return []*bench.Table{
		bench.Fig01(cfg), bench.Table2(cfg),
		bench.Fig14(cfg), bench.Fig15(cfg), bench.Fig16(cfg),
		bench.Fig17(cfg), bench.Fig18(cfg), bench.Fig19(cfg),
		bench.Fig20(cfg), bench.Fig21(cfg), bench.Fig22(cfg),
		bench.AblationR(cfg), bench.AblationEncoding(cfg), bench.AblationSkeleton(cfg), bench.Example15(cfg),
	}
}
