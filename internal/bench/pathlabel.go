package bench

import (
	"fmt"

	"wfreach/internal/graph"
)

// The naive compact execution-based scheme of Example 15: for workflow
// grammars whose runs are simple paths (such as the nonlinear-series
// grammar of Figure 12), labeling the i-th inserted vertex with the
// index i suffices — π is just integer comparison — giving logarithmic
// labels despite the nonlinearity. It demarcates the paper's open
// boundary: nonlinear series recursion sometimes admits compact
// execution-based labeling even though derivation-based labeling cannot
// be compact (Theorem 4). Example15 sets it against adapted DRL.

// pathLabel is a path-position label: bits(i) ≈ log₂ n bits.
type pathLabel int32

// bitLen returns the label size in bits.
func (l pathLabel) bitLen() int {
	b := 1
	for int32(l) >= 1<<b {
		b++
	}
	return b
}

// pathLabeler labels executions of simple-path runs on the fly.
type pathLabeler struct {
	next pathLabel
	byID map[graph.VertexID]pathLabel
	last graph.VertexID
}

func newPathLabeler() *pathLabeler {
	return &pathLabeler{byID: make(map[graph.VertexID]pathLabel), last: graph.None}
}

// insert labels the next vertex. The insertion must extend the path:
// its predecessor set must be exactly the previously inserted vertex
// (or empty for the first vertex); anything else means the run is not
// a simple path and the scheme does not apply.
func (p *pathLabeler) insert(v graph.VertexID, preds []graph.VertexID) (pathLabel, error) {
	if _, dup := p.byID[v]; dup {
		return 0, fmt.Errorf("pathlabel: vertex %d inserted twice", v)
	}
	if p.last == graph.None {
		if len(preds) != 0 {
			return 0, fmt.Errorf("pathlabel: first vertex with predecessors")
		}
	} else {
		if len(preds) != 1 || preds[0] != p.last {
			return 0, fmt.Errorf("pathlabel: insertion does not extend the path")
		}
	}
	l := p.next
	p.next++
	p.byID[v] = l
	p.last = v
	return l, nil
}

// pathPi reports reachability from two labels alone: on a path, v
// reaches w iff v precedes (or equals) w.
func pathPi(a, b pathLabel) bool { return a <= b }

// reach answers reachability between two inserted vertices.
func (p *pathLabeler) reach(v, w graph.VertexID) (bool, error) {
	a, ok := p.byID[v]
	if !ok {
		return false, fmt.Errorf("pathlabel: vertex %d not inserted", v)
	}
	b, ok := p.byID[w]
	if !ok {
		return false, fmt.Errorf("pathlabel: vertex %d not inserted", w)
	}
	return pathPi(a, b), nil
}

// maxBits returns the longest label issued so far.
func (p *pathLabeler) maxBits() int {
	if p.next == 0 {
		return 0
	}
	return (p.next - 1).bitLen()
}

// count returns the number of inserted vertices.
func (p *pathLabeler) count() int { return len(p.byID) }
