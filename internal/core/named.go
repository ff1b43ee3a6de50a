package core

import (
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// NamedEvent is an execution event identified by module name alone —
// the Section 5.3 setting where the workflow system does not log
// specification-vertex ids and the labeler resolves events "by
// checking module names". It requires the specification to satisfy the
// two naming restrictions (Spec.NameResolvable): distinct names within
// each graph, and globally unique terminal-dummy names.
type NamedEvent struct {
	V     graph.VertexID
	Name  string
	Preds []graph.VertexID
}

// InsertNamed labels one newly executed vertex identified by module
// name. Terminal dummies resolve directly (their names are globally
// unique and identify both the graph and whether a new instance
// starts); interior modules resolve within the candidate instance
// located through the predecessors, where names are unique.
func (e *ExecutionLabeler) InsertNamed(ev NamedEvent) (label.Label, error) {
	entries, err := e.AppendInsertNamed(nil, ev)
	return label.Label{Entries: entries}, err
}

// AppendInsertNamed is InsertNamed issuing the label into the caller's
// buffer, with AppendInsert's contract.
func (e *ExecutionLabeler) AppendInsertNamed(dst []label.Entry, ev NamedEvent) ([]label.Entry, error) {
	if !e.namedChecked {
		if err := e.g.Spec().NameResolvable(); err != nil {
			return dst, fmt.Errorf("core: name-based insertion unavailable: %w", err)
		}
		e.namedChecked = true
	}
	// Terminal dummy: the name pins down the graph and vertex; sources
	// open instances, sinks close them — both via the ref-based path.
	for gid := range e.info {
		gi := &e.info[gid]
		for _, t := range [2]graph.VertexID{gi.source, gi.sink} {
			if gi.g.Name(t) == ev.Name {
				ref := spec.VertexRef{Graph: spec.GraphID(gid), V: t}
				return e.AppendInsert(dst, run.Event{V: ev.V, Ref: ref, Preds: ev.Preds})
			}
		}
	}
	if err := e.checkEvent(ev.V, ev.Preds); err != nil {
		return dst, err
	}
	// Interior module: find the open instance whose graph has this
	// name unmaterialized with matching predecessors (condition 1
	// makes the name unique within the instance's graph).
	for x := range e.candidates(ev.Preds) {
		gg := e.info[x.Graph].g
		for sv, r := range x.RunOf {
			if gg.Name(graph.VertexID(sv)) != ev.Name {
				continue
			}
			if r == graph.None && e.feeds(x, graph.VertexID(sv), ev.Preds) {
				return e.issue(dst, x, graph.VertexID(sv), ev.V), nil
			}
			break
		}
	}
	return dst, fmt.Errorf("core: no instance accepts module %q (vertex %d)", ev.Name, ev.V)
}

// LabelNamedExecution drives a full name-identified execution through
// a fresh labeler, returning it.
func LabelNamedExecution(g *spec.Grammar, events []NamedEvent, kind skeleton.Kind, mode RMode) (*ExecutionLabeler, error) {
	e := NewExecutionLabeler(g, kind, mode)
	for i := range events {
		if _, err := e.InsertNamed(events[i]); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return e, nil
}
