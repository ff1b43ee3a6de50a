package bench

import (
	"fmt"

	"wfreach/internal/graph"
)

// The execution-based dynamic labeling scheme of Section 3.2 for
// arbitrary DAGs: the i-th inserted vertex receives a label of i-1
// bits, bit j recording whether the j-th vertex reaches it. This is the
// matching upper bound for the Θ(n) lower bounds of Theorems 1, 4 and 5
// — and the scheme the paper notes would label a 32K-vertex run with
// labels of exactly 32K-1 bits (Section 7.3). It is the witness for
// Fig01's "dynamic DAG" column.

// tclLabel is a TCL-dynamic reachability label: the vertex's insertion
// index is implicit in the label's bit length (|φ(v_i)| = i-1).
type tclLabel struct {
	index int      // 0-based insertion index
	bits  []uint64 // ancestor set over earlier insertion indexes
}

// tclLabeler labels an execution of an arbitrary DAG on the fly.
type tclLabeler struct {
	labels []*tclLabel
	byID   map[graph.VertexID]*tclLabel
}

func newTCLLabeler() *tclLabeler {
	return &tclLabeler{byID: make(map[graph.VertexID]*tclLabel)}
}

// insert labels the next vertex of the execution, given its
// predecessors among the already-inserted vertices (Definition 3's
// g + (v, C) update).
func (t *tclLabeler) insert(v graph.VertexID, preds []graph.VertexID) (*tclLabel, error) {
	if _, dup := t.byID[v]; dup {
		return nil, fmt.Errorf("tcldyn: vertex %d inserted twice", v)
	}
	i := len(t.labels)
	words := (i + 63) / 64
	l := &tclLabel{index: i, bits: make([]uint64, words)}
	for _, p := range preds {
		pl, ok := t.byID[p]
		if !ok {
			return nil, fmt.Errorf("tcldyn: predecessor %d not inserted", p)
		}
		// Ancestors of v include p and p's ancestors: φ(v)[j] = 1 iff
		// v_j ; v.
		for w := range pl.bits {
			l.bits[w] |= pl.bits[w]
		}
		l.bits[pl.index/64] |= 1 << (uint(pl.index) % 64)
	}
	t.labels = append(t.labels, l)
	t.byID[v] = l
	return l, nil
}
