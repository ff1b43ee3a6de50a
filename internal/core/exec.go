package core

import (
	"fmt"
	"iter"
	"slices"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// ExecutionLabeler is the execution-based dynamic labeling scheme of
// Section 5.3: it receives one vertex insertion at a time — a run
// vertex, its predecessors, and the specification vertex it executes
// (the execution-log mapping) — infers the underlying derivation on
// the fly, and issues the same labels the derivation-based scheme
// would, in O(1) per insertion for a fixed grammar.
//
// Inference works as the paper sketches: an insertion of a graph's
// source dummy opens a new instance (a fresh slot expansion, the next
// copy of a loop or fork, or the next member of a recursion chain),
// located by matching the insertion's predecessor set against the
// expected predecessor set of every candidate slot along the
// slot-parent chains of the predecessors' contexts; any other
// insertion binds to the unique open instance that has its spec vertex
// unmaterialized with matching predecessors.
//
// An ExecutionLabeler is not safe for concurrent use; see the package
// comment for the single-writer contract and what may be shared.
type ExecutionLabeler struct {
	base
	// namedChecked caches the NameResolvable validation for
	// InsertNamed.
	namedChecked bool
	// info[gid] holds what every insertion asks of a specification
	// graph, computed once at construction.
	info []graphInfo

	// Scratch of the insertion in progress, reused by the next one (the
	// labeler is single-writer): the stamp marking parse-tree nodes the
	// candidate walk has visited, the expected-predecessor list of the
	// slot under test, and the event's predecessors sorted for the
	// multi-predecessor comparison (empty until one is needed). Nothing
	// returned to a caller may alias exp or got.
	stamp    uint64
	exp, got []graph.VertexID
}

// graphInfo is the static part of one specification graph.
type graphInfo struct {
	g            *graph.Graph
	owner        string // the composite name the graph implements
	source, sink graph.VertexID
	composite    []bool           // per vertex: does it name a composite module
	slots        []graph.VertexID // the composite vertices, in vertex order
}

// NewExecutionLabeler builds an execution-based labeler.
func NewExecutionLabeler(g *spec.Grammar, kind skeleton.Kind, mode RMode) *ExecutionLabeler {
	e := &ExecutionLabeler{base: newBase(g, kind, mode)}
	for _, ng := range g.Spec().Graphs() {
		gi := graphInfo{g: ng.G, owner: ng.Owner, source: ng.G.Source(), sink: ng.G.Sink(),
			composite: make([]bool, ng.G.NumVertices())}
		for v := range gi.composite {
			if g.Spec().Kind(ng.G.Name(graph.VertexID(v))).Composite() {
				gi.composite[v] = true
				gi.slots = append(gi.slots, graph.VertexID(v))
			}
		}
		e.info = append(e.info, gi)
	}
	return e
}

// Insert labels one newly executed vertex. Insertions must arrive in a
// topological order of the (eventual) run graph, as executions do
// (Definition 8). It returns the vertex's final label, freshly
// allocated and the caller's to keep.
func (e *ExecutionLabeler) Insert(ev run.Event) (label.Label, error) {
	entries, err := e.AppendInsert(nil, ev)
	return label.Label{Entries: entries}, err
}

// AppendInsert is Insert issuing the label into a buffer the caller
// owns: the vertex's final label is appended to dst, entry by entry,
// and the extended slice returned (dst itself on an error). A caller
// that consumes each label before the next insertion — the service
// encodes it into the store's slab — passes the same buffer every time
// and the insertion allocates nothing; the labeler keeps no reference
// to dst.
func (e *ExecutionLabeler) AppendInsert(dst []label.Entry, ev run.Event) ([]label.Entry, error) {
	gid, sv := ev.Ref.Graph, ev.Ref.V
	if gid < 0 || int(gid) >= len(e.info) {
		return dst, fmt.Errorf("core: event names unknown graph %d", gid)
	}
	gi := &e.info[gid]
	if !gi.g.Valid(sv) {
		return dst, fmt.Errorf("core: event names unknown vertex %d of graph %d", sv, gid)
	}
	if err := e.checkEvent(ev.V, ev.Preds); err != nil {
		return dst, err
	}

	var x *parsetree.Node
	var err error
	switch {
	case e.root == nil:
		// Bootstrap: the very first insertion must be g0's source.
		if gid != spec.StartGraph || sv != gi.source || len(ev.Preds) != 0 {
			return dst, fmt.Errorf("core: execution must start with the source of g0")
		}
		x = e.startRoot()
	case len(ev.Preds) == 0:
		return dst, fmt.Errorf("core: only the source of g0 has no predecessors")
	case gid != spec.StartGraph && sv == gi.source:
		x, err = e.openInstance(ev)
	default:
		x, err = e.findMember(ev)
	}
	if err != nil {
		return dst, err
	}
	return e.issue(dst, x, sv, ev.V), nil
}

// issue binds run vertex v as spec vertex sv of instance x and appends
// its label to dst.
func (e *ExecutionLabeler) issue(dst []label.Entry, x *parsetree.Node, sv, v graph.VertexID) []label.Entry {
	e.bind(x, sv, v)
	return e.appendLabel(dst, x, sv)
}

// checkEvent is the validation every insertion entry point makes
// before touching the tree: the vertex id is one the log and the store
// can hold (non-negative), the vertex is new (labels are immutable) and
// every predecessor has been inserted.
func (e *ExecutionLabeler) checkEvent(v graph.VertexID, preds []graph.VertexID) error {
	if v < 0 {
		return fmt.Errorf("core: run vertex id %d is negative", v)
	}
	if _, dup := e.ctx.get(v); dup {
		return fmt.Errorf("core: run vertex %d inserted twice", v)
	}
	for _, p := range preds {
		if _, ok := e.ctx.get(p); !ok {
			return fmt.Errorf("core: predecessor %d of vertex %d not yet inserted", p, v)
		}
	}
	return nil
}

// findMember returns the existing instance a non-source vertex binds
// to: the first instance along the predecessors' slot-parent chains
// whose graph matches, whose spec vertex is unmaterialized, and whose
// expected predecessors equal the event's.
func (e *ExecutionLabeler) findMember(ev run.Event) (*parsetree.Node, error) {
	gid, sv := ev.Ref.Graph, ev.Ref.V
	for x := range e.candidates(ev.Preds) {
		if x.Graph == gid && x.RunOf[sv] == graph.None && e.feeds(x, sv, ev.Preds) {
			return x, nil
		}
	}
	return nil, fmt.Errorf("core: no instance accepts vertex %d (g%d:%d)", ev.V, gid, sv)
}

// openInstance opens a new instance of graph gid for a source-dummy
// insertion, attaching it to the slot whose expected predecessors
// match. Continuations of existing loop and fork groups are preferred
// over fresh expansions, and deeper instances over shallower ones.
func (e *ExecutionLabeler) openInstance(ev run.Event) (*parsetree.Node, error) {
	gid := ev.Ref.Graph
	gi := &e.info[gid]
	vertices := len(gi.composite)

	for y := range e.candidates(ev.Preds) {
		slots := e.info[y.Graph].slots
		// Continuations of this instance's open loop/fork groups.
		for _, cu := range slots {
			gx := y.Groups[cu]
			if gx == nil || (gx.Kind != label.L && gx.Kind != label.F) {
				continue
			}
			if len(gx.Children) == 0 || gx.Children[0].Graph != gid {
				continue
			}
			if gx.Kind == label.L {
				// The next series copy is fed by the last copy's sink.
				snk := e.sinkOf(gx.Children[len(gx.Children)-1])
				if snk == graph.None || len(ev.Preds) != 1 || ev.Preds[0] != snk {
					continue
				}
			} else if !e.feeds(y, cu, ev.Preds) {
				// Parallel copies all share the slot's own predecessors.
				continue
			}
			x := gx.AddInstance(gid, vertices, gx.NextIndex())
			x.Prefix = gx.Prefix
			x.SlotParent, x.SlotVertex = y, cu
			return x, nil
		}
		// Fresh expansions of this instance's unexpanded slots (which
		// include the designated recursive vertex, whose expansion
		// extends the enclosing R chain).
		for _, cu := range slots {
			if y.Groups[cu] != nil || e.info[y.Graph].g.Name(cu) != gi.owner || !e.feeds(y, cu, ev.Preds) {
				continue
			}
			return e.expandSlot(y, cu, gid)
		}
	}
	return nil, fmt.Errorf("core: no slot accepts source of g%d (vertex %d)", gid, ev.V)
}

// expandSlot creates the tree structure for the first copy of slot cu
// of instance y, mirroring Algorithm 2's four cases.
func (e *ExecutionLabeler) expandSlot(y *parsetree.Node, cu graph.VertexID, gid spec.GraphID) (*parsetree.Node, error) {
	vertices := len(e.info[gid].composite)
	if e.designatedOf(y.Graph) == cu {
		// Recursion-chain continuation: next child of the enclosing R.
		rx := y.Parent
		if rx == nil || rx.Kind != label.R {
			return nil, fmt.Errorf("core: recursive vertex outside an R chain")
		}
		x := rx.AddInstance(gid, vertices, rx.NextIndex())
		x.Prefix = rx.Prefix
		x.SlotParent, x.SlotVertex = y, cu
		y.Groups[cu] = x
		return x, nil
	}
	t := label.N // a plain replacement hangs the instance under y itself
	switch kind := e.g.Spec().Kind(e.info[gid].owner); {
	case kind == spec.Loop:
		t = label.L
	case kind == spec.Fork:
		t = label.F
	case e.designatedOf(gid) != graph.None:
		t = label.R
	}
	if t == label.N {
		x := y.AddInstance(gid, vertices, parsetree.SlotIndex(cu))
		x.Prefix = e.expansionPrefix(y, cu)
		x.SlotParent, x.SlotVertex = y, cu
		y.Groups[cu] = x
		return x, nil
	}
	gx := y.AddSpecial(t, parsetree.SlotIndex(cu))
	gx.Prefix = e.expansionPrefix(y, cu, specialEntry(gx))
	y.Groups[cu] = gx
	x := gx.AddInstance(gid, vertices, gx.NextIndex())
	x.Prefix = gx.Prefix
	x.SlotParent, x.SlotVertex = y, cu
	return x, nil
}

// candidates yields the instances to try for an event: the slot-parent
// chain bottom-up from each predecessor's context, each instance once.
// A chain that reaches a node already stamped by this walk has merged
// into one already yielded and is dropped there. The walk is lazy —
// callers stop at the first accepting instance — and starting one
// invalidates the previous event's scratch.
func (e *ExecutionLabeler) candidates(preds []graph.VertexID) iter.Seq[*parsetree.Node] {
	e.stamp++
	e.got = e.got[:0]
	return func(yield func(*parsetree.Node) bool) {
		for _, p := range preds {
			ref, _ := e.ctx.get(p) // checkEvent saw every predecessor
			for x := ref.node; x != nil && x.Visit != e.stamp; x = x.SlotParent {
				x.Visit = e.stamp
				if !yield(x) {
					return
				}
			}
		}
	}
}

// feeds reports whether preds are exactly the run vertices that feed
// spec vertex sv of instance y: materialized atomic predecessors
// directly, and for each composite predecessor the sink(s) of its
// completed expansion — the last copy's sink for a loop, every copy's
// sink for a fork, the first chain member's sink for a recursion
// (nested members replace vertices inside it), and the single
// instance's sink otherwise. False while some needed piece is not yet
// materialized. The comparison is of multisets, in e.exp and e.got.
func (e *ExecutionLabeler) feeds(y *parsetree.Node, sv graph.VertexID, preds []graph.VertexID) bool {
	gi := &e.info[y.Graph]
	e.exp = e.exp[:0]
	for _, p := range gi.g.In(sv) {
		if !gi.composite[p] {
			e.exp = append(e.exp, y.RunOf[p])
			continue
		}
		gx := y.Groups[p]
		if gx == nil {
			return false
		}
		switch {
		case gx.Kind == label.N:
			// Plain instance, or the first member of an R chain reached
			// via Groups (chain members nest inside it, so its sink is
			// the expansion's sink either way).
			e.exp = append(e.exp, e.sinkOf(gx))
		case gx.Kind == label.F:
			for _, c := range gx.Children {
				e.exp = append(e.exp, e.sinkOf(c))
			}
		case len(gx.Children) == 0:
			return false
		case gx.Kind == label.L:
			e.exp = append(e.exp, e.sinkOf(gx.Children[len(gx.Children)-1]))
		default: // label.R
			e.exp = append(e.exp, e.sinkOf(gx.Children[0]))
		}
	}
	if len(e.exp) != len(preds) || slices.Contains(e.exp, graph.None) {
		return false
	}
	if len(preds) == 1 {
		return e.exp[0] == preds[0]
	}
	if len(e.got) == 0 {
		e.got = append(e.got, preds...)
		slices.Sort(e.got)
	}
	slices.Sort(e.exp)
	return slices.Equal(e.exp, e.got)
}

// sinkOf returns the run vertex of an instance's sink dummy, or
// graph.None while the instance is still open.
func (e *ExecutionLabeler) sinkOf(x *parsetree.Node) graph.VertexID {
	return x.RunOf[e.info[x.Graph].sink]
}

// LabelExecution drives a full execution through a fresh labeler,
// returning it. Convenience for tests and benchmarks.
func LabelExecution(g *spec.Grammar, events []run.Event, kind skeleton.Kind, mode RMode) (*ExecutionLabeler, error) {
	e := NewExecutionLabeler(g, kind, mode)
	for i := range events {
		if _, err := e.Insert(events[i]); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return e, nil
}
