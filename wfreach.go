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
// paper's lower-bound constructions, the Θ(n) general-DAG scheme, and
// the static SKL baseline for comparison.
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
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"wfreach/internal/api"
	"wfreach/internal/cluster"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/obs"
	"wfreach/internal/replica"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/skeleton"
	"wfreach/internal/skl"
	"wfreach/internal/spec"
	"wfreach/internal/store"
	"wfreach/internal/tcldyn"
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
	// GraphID identifies a specification graph (0 is the start graph).
	GraphID = spec.GraphID
	// VertexRef names one vertex of one specification graph.
	VertexRef = spec.VertexRef
	// Class is the recursion class of a grammar.
	Class = spec.Class
	// ModuleKind classifies module names (atomic, plain, loop, fork).
	ModuleKind = spec.Kind
)

// Runs and executions.
type (
	// Run is a (possibly still deriving) workflow run.
	Run = run.Run
	// Step is one applied derivation step (vertex replacement).
	Step = run.Step
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
	// LabelCodec encodes labels into the canonical bit layout.
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
	// SKL is the static baseline scheme of Section 7.4.
	SKL = skl.Scheme
	// SKLLabel is an SKL label (three indexes plus skeleton pointer).
	SKLLabel = skl.Label
	// TCLDynamic is the Θ(n) dynamic scheme for arbitrary DAGs
	// (Section 3.2).
	TCLDynamic = tcldyn.Labeler
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
	// RModeNone disables R nodes (the simplified adaptation).
	RModeNone = core.RModeNone
)

// Grammar classes.
const (
	ClassNonRecursive      = spec.ClassNonRecursive
	ClassLinear            = spec.ClassLinear
	ClassNonlinearSeries   = spec.ClassNonlinearSeries
	ClassNonlinearParallel = spec.ClassNonlinearParallel
)

// Module kinds.
const (
	ModuleAtomic = spec.Atomic
	ModulePlain  = spec.Plain
	ModuleLoop   = spec.Loop
	ModuleFork   = spec.Fork
)

// Label persistence and the concurrent provenance service.
type (
	// Store is a write-once map from run vertices to encoded labels,
	// answering reachability from the stored bytes alone. It is
	// internally synchronized: queries run lock-free against an
	// append-only label slab.
	Store = store.Store
	// Registry is a concurrent registry of named labeling sessions.
	Registry = service.Registry
	// Session is one live labeling session: single-writer event ingest,
	// concurrent label-based queries.
	Session = service.Session
	// SessionConfig selects a session's labeling scheme.
	SessionConfig = service.Config
	// SessionStats is a point-in-time snapshot of a session.
	SessionStats = service.Stats
	// WireEvent is the JSON form of one execution event on the service
	// HTTP API.
	WireEvent = service.WireEvent
	// DurableOptions configures the persistence layer of a durable
	// registry: the data directory, the snapshot cadence and the fsync
	// policy.
	DurableOptions = service.DurableOptions
)

// NewStore creates an empty label store for runs of the grammar.
func NewStore(g *Grammar, kind SkeletonKind) *Store { return store.New(g, kind) }

// NewRegistry returns an empty, memory-only session registry.
func NewRegistry() *Registry { return service.NewRegistry() }

// NewDurableRegistry returns a registry whose sessions persist to a
// data directory through a write-ahead log and periodic label
// snapshots, and can be rebuilt after a restart with Registry.Restore.
// See ARCHITECTURE.md for the on-disk format.
func NewDurableRegistry(opts DurableOptions) (*Registry, error) {
	return service.NewDurableRegistry(opts)
}

// ErrDurability marks server-side persistence failures on a durable
// session — a write-ahead log that cannot be written or flushed. A
// session returning it refuses further ingest; queries keep working.
var ErrDurability = service.ErrDurability

// NewServiceHandler returns the JSON/HTTP handler serving the registry
// (the cmd/wfserve API; see internal/service for the endpoints).
func NewServiceHandler(r *Registry) http.Handler { return service.NewHandler(r) }

// Observability (see internal/obs): the dependency-free metrics
// registry behind GET /v1/metrics, and logfmt structured request
// logging for the HTTP surface.
type (
	// MetricsRegistry is a node's metric family set; Registry.Obs()
	// returns the one the service plane registers into.
	MetricsRegistry = obs.Registry
	// ObsLogger writes logfmt lines (ts, level, msg, key=value...).
	ObsLogger = obs.Logger
	// AccessLogOptions tunes the request-logging middleware.
	AccessLogOptions = obs.AccessLogOptions
)

// NewObsLogger returns a logfmt logger writing to w (nil discards).
func NewObsLogger(w io.Writer) *ObsLogger { return obs.NewLogger(w) }

// AccessLog wraps an HTTP handler with structured request logging —
// one logfmt line per request (id, method, route, status, bytes,
// duration), a warn line for requests slower than opts.Slow, and
// request counters/latency in opts.Metrics when set.
func AccessLog(next http.Handler, l *ObsLogger, opts AccessLogOptions) http.Handler {
	return obs.AccessLog(next, l, opts)
}

// Replication: a follower tails a primary wfserve's write-ahead logs
// and serves the same query surface read-only (see internal/replica).
type (
	// Follower replicates a primary server into a local registry and
	// can be promoted to writable on failover.
	Follower = replica.Follower
	// FollowerOptions tunes a follower's polling, reconnect backoff
	// and apply batching.
	FollowerOptions = replica.Options
	// ReplicationStatus is a server's replication role and per-session
	// WAL progress (GET /v1/replication/status).
	ReplicationStatus = api.ReplicationStatus
	// SessionReplication is one session's replication progress.
	SessionReplication = api.SessionReplication
)

// NewFollower marks the registry a read-only follower of the primary
// at the given base URL and prepares to replicate it. Call Start on
// the result to begin tailing, Promote to flip to writable on
// failover, Close to stop without promoting. The registry should
// usually be durable and freshly restored, so replication resumes
// from the last applied event across restarts.
func NewFollower(primary string, reg *Registry, opts FollowerOptions) *Follower {
	return replica.New(primary, reg, opts)
}

// Clustering: partition sessions across several primary servers by
// consistent hashing on the session name (see internal/cluster and
// the "Cluster" section of ARCHITECTURE.md).
type (
	// ClusterMap is the versioned placement map every node and client
	// of one cluster shares: the static node set plus per-session
	// move overrides.
	ClusterMap = api.ClusterMap
	// ClusterNode is one node entry of a cluster map.
	ClusterNode = api.ClusterNode
	// ClusterController runs one node's share of a cluster: placement
	// gating, the /v1/cluster control plane, peer probing and session
	// moves.
	ClusterController = cluster.Controller
	// ClusterOptions tunes a controller's probing and move batching.
	ClusterOptions = cluster.Options
)

// LoadClusterMap reads a cluster map from its JSON config file (the
// wfserve -cluster flag).
func LoadClusterMap(path string) (ClusterMap, error) { return cluster.LoadMap(path) }

// NewClusterController builds the cluster controller for the node
// named self and installs its placement gate on the registry. Call
// Start on the result to begin probing peers, Close to stop.
func NewClusterController(self string, m ClusterMap, reg *Registry, opts ClusterOptions) (*ClusterController, error) {
	return cluster.New(self, m, reg, opts)
}

// GenerateEvents derives a random run and returns its execution event
// stream together with the run as ground-truth oracle.
func GenerateEvents(g *Grammar, opts GenOptions) ([]Event, *Run, error) {
	return gen.GenerateEvents(g, opts)
}

// LLM-agent adversarial workload (the load matrix's "agent"
// dimension): recursive tool-call conversations with explicit turn,
// delegation-depth, burst and retry control.
type (
	// AgentOptions steers GenerateAgentTrace.
	AgentOptions = gen.AgentOptions
	// AgentTrace is one generated agent conversation: events, oracle
	// run, and the shape the random choices produced.
	AgentTrace = gen.AgentTrace
)

// GenerateAgentTrace derives a random run of the LLM-agent grammar
// (the "Agent" builtin) and returns its execution event stream with
// ground truth and shape statistics.
func GenerateAgentTrace(opts AgentOptions) (*AgentTrace, error) {
	return gen.GenerateAgentTrace(opts)
}

// AgentWorkflow returns the LLM-agent workflow grammar (the "Agent"
// builtin): a conversation loop of recursive tool-call turns.
func AgentWorkflow() *Spec { return wfspecs.Agent() }

// ToWire converts an execution event to its HTTP wire form.
func ToWire(ev Event) WireEvent { return service.ToWire(ev) }

// ToWireNamed converts a name-identified event to its HTTP wire form.
func ToWireNamed(ev NamedEvent) WireEvent { return service.ToWireNamed(ev) }

// NewSpec returns an empty specification builder.
func NewSpec() *SpecBuilder { return spec.NewBuilder() }

// NewGraph builds a graph from vertex names (distinct) and name-pair
// edges; it panics on malformed literals.
func NewGraph(vertices []string, edges ...[2]string) *Graph { return spec.G(vertices, edges...) }

// NewGraphIdx builds a graph from vertex names (repeats allowed) and
// index-pair edges.
func NewGraphIdx(vertices []string, edges ...[2]int) *Graph { return spec.GIdx(vertices, edges...) }

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

// NewDerivationLabeler builds a derivation-based dynamic labeler.
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

// BuildSKL builds the static SKL baseline over a completed run of a
// non-recursive grammar.
func BuildSKL(r *Run, kind SkeletonKind) (*SKL, error) { return skl.Build(r, kind) }

// NewTCLDynamic returns the Θ(n) dynamic labeler for arbitrary DAG
// executions.
func NewTCLDynamic() *TCLDynamic { return tcldyn.New() }

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

// BuiltinSpec returns a built-in specification by name ("BioAID",
// "BioAIDNonRecursive", "LowerBound", "Path", "RunningExample") — the
// same names the service HTTP API accepts in a create request.
func BuiltinSpec(name string) (*Spec, bool) { return service.Builtin(name) }

// BuiltinSpecNames lists the built-in specification names, sorted.
func BuiltinSpecNames() []string { return service.BuiltinNames() }

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

// SaveSpec writes a specification to an XML file.
func SaveSpec(path string, s *Spec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wfreach: %w", err)
	}
	defer f.Close()
	if err := wfxml.EncodeSpec(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadSpec reads a specification from an XML file.
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
