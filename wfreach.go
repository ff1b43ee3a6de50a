// Package wfreach is a dynamic reachability-labeling library for
// workflow executions, implementing Bao, Davidson and Milo, "Labeling
// Recursive Workflow Executions On-the-Fly" (SIGMOD 2011).
//
// Workflow specifications — small DAGs of atomic and composite modules
// with loops, forks and recursion, formalized as vertex-replacement
// graph grammars — are executed into runs that can be thousands of
// vertices large. wfreach assigns every process and data item a
// compact reachability label the moment it appears, so provenance
// queries ("was A used, directly or indirectly, to produce B?") can be
// answered from the labels alone, in constant time, even over partial
// executions. For linear recursive workflows (the common case in
// practice) labels are O(log n) bits; the library also ships the
// paper's lower-bound constructions. The baselines the paper measures
// against — the Θ(n) general-DAG scheme and the static SKL scheme — are
// experiment code, run by cmd/wfbench.
//
// This package is the labeling library only. The provenance service
// built on it (cmd/wfserve) and its Go SDK (package wfreach/client) do
// not link through it.
//
// # Quick start
//
//	s := wfreach.NewSpec().
//		Loop("L").
//		Start("g0", wfreach.NewGraph([]string{"s0", "L", "t0"},
//			[2]string{"s0", "L"}, [2]string{"L", "t0"})).
//		Implement("L", "h1", wfreach.NewGraph([]string{"s1", "work", "t1"},
//			[2]string{"s1", "work"}, [2]string{"work", "t1"})).
//		MustBuild()
//	g := wfreach.MustCompile(s)
//	r := wfreach.MustGenerate(g, wfreach.GenOptions{TargetSize: 1000, Seed: 1})
//	d, _ := wfreach.LabelRun(r, wfreach.TCL, wfreach.RModeDesignated)
//	reachable := d.Reach(v, w) // constant-time, labels only
//
// The execution-based labeler (NewExecutionLabeler) consumes one
// vertex insertion at a time instead, labeling executions as they
// stream in, and produces identical labels.
package wfreach

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
	"wfreach/internal/wfxml"
)

// Graph building and specifications.
type (
	// Graph is a directed acyclic graph with named vertices.
	Graph = graph.Graph
	// VertexID identifies a vertex of a Graph or a run.
	VertexID = graph.VertexID
	// Spec is a validated workflow specification (Definition 5).
	Spec = spec.Spec
	// SpecBuilder assembles a specification.
	SpecBuilder = spec.Builder
	// Grammar is a compiled specification: the workflow grammar of
	// Definition 6 plus its recursion analysis.
	Grammar = spec.Grammar
)

// Runs and executions.
type (
	// Run is a (possibly still deriving) workflow run.
	Run = run.Run
	// Event is one execution insertion (vertex, predecessors,
	// specification mapping).
	Event = run.Event
	// GenOptions steers random run generation.
	GenOptions = gen.Options
)

// Labeling.
type (
	// Label is a DRL reachability label.
	Label = label.Label
	// LabelCodec encodes labels into the canonical bit layout. It holds
	// the labels of executed (atomic) vertices only: it panics on the
	// label of a composite vertex, which a DerivationLabeler issues for
	// its intermediate graphs and which is in-memory only.
	LabelCodec = label.Codec
	// DerivationLabeler labels derivations (Section 5.2).
	DerivationLabeler = core.DerivationLabeler
	// ExecutionLabeler labels executions (Section 5.3).
	ExecutionLabeler = core.ExecutionLabeler
	// NamedEvent is an execution event identified by module name only
	// (the Section 5.3 naming-restriction setting).
	NamedEvent = core.NamedEvent
	// SkeletonKind selects the specification-labeling scheme.
	SkeletonKind = skeleton.Kind
	// RMode selects the recursion-compression mode (Section 6).
	RMode = core.RMode
)

// Skeleton scheme kinds (Section 7.1).
const (
	// TCL precomputes the specification's transitive closure; O(1)
	// skeleton queries at n(n-1)/2 bits per specification graph.
	TCL = skeleton.TCL
	// BFS stores nothing and searches the specification per query.
	BFS = skeleton.BFS
)

// Recursion-compression modes (Section 6).
const (
	// RModeDesignated compresses one recursive vertex per production
	// into R-node chains (the full scheme; compact on linear grammars).
	RModeDesignated = core.RModeDesignated
)

// Module kinds of the composite modules a run replicates (Spec.Kind).
const (
	ModuleLoop = spec.Loop
	ModuleFork = spec.Fork
)

// NewSpec returns an empty specification builder.
func NewSpec() *SpecBuilder { return spec.NewBuilder() }

// NewGraph builds a graph from vertex names (distinct) and name-pair
// edges; it panics on malformed literals.
func NewGraph(vertices []string, edges ...[2]string) *Graph { return spec.G(vertices, edges...) }

// Compile analyzes a specification into a grammar.
func Compile(s *Spec) (*Grammar, error) { return spec.Compile(s) }

// MustCompile is Compile panicking on error.
func MustCompile(s *Spec) *Grammar { return spec.MustCompile(s) }

// NewRun starts a run of the grammar at its start graph.
func NewRun(g *Grammar) *Run { return run.New(g) }

// Generate derives a random run of roughly opts.TargetSize vertices.
func Generate(g *Grammar, opts GenOptions) (*Run, error) { return gen.Generate(g, opts) }

// MustGenerate is Generate panicking on error.
func MustGenerate(g *Grammar, opts GenOptions) *Run { return gen.MustGenerate(g, opts) }

// NewDerivationLabeler builds a derivation-based dynamic labeler. The
// labels it issues for composite vertices of intermediate graphs answer
// queries but cannot be encoded: a LabelCodec holds the labels of
// atomic vertices only.
func NewDerivationLabeler(g *Grammar, kind SkeletonKind, mode RMode) *DerivationLabeler {
	return core.NewDerivationLabeler(g, kind, mode)
}

// NewExecutionLabeler builds an execution-based dynamic labeler.
func NewExecutionLabeler(g *Grammar, kind SkeletonKind, mode RMode) *ExecutionLabeler {
	return core.NewExecutionLabeler(g, kind, mode)
}

// LabelRun labels a completed run's derivation end to end.
func LabelRun(r *Run, kind SkeletonKind, mode RMode) (*DerivationLabeler, error) {
	return core.LabelRun(r, kind, mode)
}

// LabelExecution labels a full execution event sequence end to end.
func LabelExecution(g *Grammar, events []Event, kind SkeletonKind, mode RMode) (*ExecutionLabeler, error) {
	return core.LabelExecution(g, events, kind, mode)
}

// LabelNamedExecution labels a full execution identified by module
// names only; the specification must satisfy the Section 5.3 naming
// restrictions (Spec.NameResolvable).
func LabelNamedExecution(g *Grammar, events []NamedEvent, kind SkeletonKind, mode RMode) (*ExecutionLabeler, error) {
	return core.LabelNamedExecution(g, events, kind, mode)
}

// NewLabelCodec builds the canonical label codec for a grammar.
func NewLabelCodec(g *Grammar) *LabelCodec { return label.NewCodec(g) }

// Built-in specifications (Sections 2.2, 3.1, 6 and 7).

// RunningExample returns the paper's running example (Figure 2).
func RunningExample() *Spec { return wfspecs.RunningExample() }

// BioAID returns the reconstruction of the real-life BioAID workflow
// (Section 7.2).
func BioAID() *Spec { return wfspecs.BioAID() }

// BioAIDNonRecursive returns BioAID with its recursion converted to a
// loop (the Section 7.4 comparison workload).
func BioAIDNonRecursive() *Spec { return wfspecs.BioAIDNonRecursive() }

// LowerBoundGrammar returns the Figure 6 grammar requiring Ω(n)-bit
// dynamic labels (Theorem 1).
func LowerBoundGrammar() *Spec { return wfspecs.Fig6() }

// PathGrammar returns the Figure 12 grammar (nonlinear yet compactly
// labelable, Example 15).
func PathGrammar() *Spec { return wfspecs.Fig12() }

// SyntheticParams configures the Figure 13 synthetic family.
type SyntheticParams = wfspecs.SyntheticParams

// Synthetic builds a member of the Figure 13 synthetic family.
func Synthetic(p SyntheticParams) *Spec { return wfspecs.Synthetic(p) }

// XML persistence (Section 7.1 stores all data as XML).

// SpecXML renders a specification as its XML document — the form the
// service create request carries inline in its spec_xml field.
func SpecXML(s *Spec) (string, error) {
	var b strings.Builder
	if err := wfxml.EncodeSpec(&b, s); err != nil {
		return "", err
	}
	return b.String(), nil
}

// SaveSpec writes a specification to an XML file. It refuses, writing
// nothing, one whose document would be over the 4 MiB LoadSpec reads.
func SaveSpec(path string, s *Spec) error {
	var b bytes.Buffer
	if err := wfxml.EncodeSpec(&b, s); err != nil {
		return err
	}
	if b.Len() > wfxml.MaxSpecBytes {
		return fmt.Errorf("wfreach: specification encodes to %d bytes, over the %d-byte cap", b.Len(), wfxml.MaxSpecBytes)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o666); err != nil {
		return fmt.Errorf("wfreach: %w", err)
	}
	return nil
}

// LoadSpec reads a specification from an XML file of at most 4 MiB,
// refusing the constructs SaveSpec never writes: directives, CDATA
// sections, processing instructions bar a leading UTF-8 XML
// declaration, names with a colon or beyond ASCII, and text other than
// white space.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wfreach: %w", err)
	}
	defer f.Close()
	return wfxml.DecodeSpec(f)
}

// SaveRun writes a run (graph, mapping and derivation) to an XML file.
func SaveRun(path string, r *Run) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wfreach: %w", err)
	}
	defer f.Close()
	if err := wfxml.EncodeRun(f, r); err != nil {
		return err
	}
	return f.Close()
}

// LoadRun reads a run from an XML file, replaying and verifying its
// derivation against the grammar.
func LoadRun(path string, g *Grammar) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wfreach: %w", err)
	}
	defer f.Close()
	return wfxml.DecodeRun(f, g)
}
