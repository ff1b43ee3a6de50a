// Package loadmatrix is the declarative scenario-matrix load harness:
// it parses a one-file JSON matrix specification whose dimensions are
// workload × topology × transport × session count × read/write mix,
// expands the cross product into named scenarios, drives each through
// the client SDK against an in-process server topology (single node,
// primary+follower, or a 3-node session-partitioned cluster), collects
// latency histograms, throughput and replica-lag samples, and
// evaluates per-scenario SLO assertions into a pass/fail report.
//
// A matrix may also (or only) declare a soak: a long-hold run that
// keeps thousands of sessions live for a wall-clock duration while
// sampling replica lag, RSS and goroutine counts.
//
// The harness drives every load in the repository. Run serves
// `wfload -matrix matrix.json`; RunLoad serves wfload's flag mode,
// which is one scenario against running servers (one node, a primary
// and follower, or a cluster map), optionally resuming sessions a
// restarted server recovered. Both go through one drive loop, one
// verified read, and one report schema. profiles/ ships a CI-sized
// quick matrix and a soak profile.
package loadmatrix

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"wfreach/internal/service"
)

// SpecError is the typed rejection of a malformed matrix
// specification. Every error Parse returns is one of these (malformed
// JSON included), so callers — and the fuzzer — can rely on errors
// being structured and never a panic.
type SpecError struct {
	// Path locates the offending field, in JSON-ish notation
	// ("workloads[0].kind"); "json" for syntax errors.
	Path string
	// Msg says what is wrong with it.
	Msg string
}

func (e *SpecError) Error() string { return "matrix spec: " + e.Path + ": " + e.Msg }

func specErr(path, format string, args ...any) *SpecError {
	return &SpecError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Matrix is the one-file load matrix: the scenario dimensions, the
// defaults they share, the SLO gates applied to every scenario, and
// optionally a soak.
//
// The scenario set is the full cross product
// workloads × topologies × transports × sessions × mixes. A matrix
// with an empty cross product is valid only if it declares a soak.
type Matrix struct {
	// Name titles the report.
	Name string `json:"name"`
	// Defaults apply to every scenario.
	Defaults Defaults `json:"defaults"`
	// Workloads is the what-to-ingest dimension.
	Workloads []Workload `json:"workloads"`
	// Topologies is the server-shape dimension: "single", "replica"
	// (primary + follower, reads on the follower), or "cluster3"
	// (3-node session-partitioned cluster behind the routing client).
	Topologies []string `json:"topologies,omitempty"`
	// Transports is the ingest-encoding dimension: "binary" (/v1 frame
	// stream) or "json" (/v1 JSON batches).
	Transports []string `json:"transports,omitempty"`
	// Sessions is the concurrency dimension: each value is a scenario
	// with that many concurrent sessions (one writer each).
	Sessions []int `json:"sessions,omitempty"`
	// Mixes is the read/write-mix dimension; empty selects one default
	// mix (2 readers, reach batches of 8).
	Mixes []Mix `json:"mixes,omitempty"`
	// SLO gates every scenario; Overrides specialize it.
	SLO SLO `json:"slo"`
	// Overrides replace SLO fields for the scenarios they match.
	Overrides []Override `json:"overrides,omitempty"`
	// Soak, when present, is the long-hold run.
	Soak *Soak `json:"soak,omitempty"`
}

// Defaults are the knobs shared by every scenario.
type Defaults struct {
	// Batch is events per ingest call. Zero selects 128.
	Batch int `json:"batch,omitempty"`
	// Verify checks every query answer against BFS ground truth.
	Verify bool `json:"verify,omitempty"`
	// Seed is the base generation seed (session i of a scenario uses
	// Seed+i). Zero selects 1.
	Seed int64 `json:"seed,omitempty"`
}

// Workload is one value of the what-to-ingest dimension.
type Workload struct {
	// Name labels the workload in scenario names; unique.
	Name string `json:"name"`
	// Kind is "grammar" (a built-in specification, generated by size)
	// or "agent" (the LLM-agent adversarial trace generator).
	Kind string `json:"kind"`
	// Spec names the built-in specification; required for kind
	// "grammar", forbidden for kind "agent" (which always uses the
	// Agent grammar).
	Spec string `json:"spec,omitempty"`
	// Size is the target vertices per generated run. Zero selects 2000.
	Size int `json:"size,omitempty"`
	// Depth bounds agent delegation depth (kind "agent" only).
	Depth int `json:"depth,omitempty"`
	// Fanout caps agent tool-call bursts (kind "agent" only).
	Fanout int `json:"fanout,omitempty"`
	// Retries caps agent tool retries (kind "agent" only).
	Retries int `json:"retries,omitempty"`
}

// Mix is one value of the read/write-mix dimension.
type Mix struct {
	// Name labels the mix in scenario names; unique.
	Name string `json:"name"`
	// Readers is query goroutines per session (0 = write-only).
	Readers int `json:"readers"`
	// ReachBatch is reachability pairs per batch-reach call. Zero
	// selects 1.
	ReachBatch int `json:"reach_batch,omitempty"`
	// LineageEvery makes every Nth reader call a lineage scan (0
	// disables).
	LineageEvery int `json:"lineage_every,omitempty"`
}

// SLO is the gate set evaluated against a scenario's measured
// metrics. A zero field is ungated. Semantics live in Evaluate: a
// measurement exactly at its limit passes; a gated metric with no
// samples (or a non-finite value) fails loudly.
type SLO struct {
	// P99IngestUS caps the p99 ingest-batch latency, microseconds.
	P99IngestUS int64 `json:"p99_ingest_us,omitempty"`
	// P99QueryUS caps the p99 query latency, microseconds.
	P99QueryUS int64 `json:"p99_query_us,omitempty"`
	// MinEventsPerSec floors the ingest throughput.
	MinEventsPerSec float64 `json:"min_events_per_sec,omitempty"`
	// MaxReplicaLagEvents caps the worst sampled replica lag; only
	// evaluated on topologies with a follower.
	MaxReplicaLagEvents int64 `json:"max_replica_lag_events,omitempty"`
}

// merge returns s with o's non-zero fields replacing its own.
func (s SLO) merge(o SLO) SLO {
	if o.P99IngestUS != 0 {
		s.P99IngestUS = o.P99IngestUS
	}
	if o.P99QueryUS != 0 {
		s.P99QueryUS = o.P99QueryUS
	}
	if o.MinEventsPerSec != 0 {
		s.MinEventsPerSec = o.MinEventsPerSec
	}
	if o.MaxReplicaLagEvents != 0 {
		s.MaxReplicaLagEvents = o.MaxReplicaLagEvents
	}
	return s
}

// Override specializes the SLO for the scenarios it matches. An empty
// match field matches every value of that dimension; named values
// must exist in the matrix.
type Override struct {
	Workload  string `json:"workload,omitempty"`
	Topology  string `json:"topology,omitempty"`
	Transport string `json:"transport,omitempty"`
	Mix       string `json:"mix,omitempty"`
	// Sessions matches the scenario's session count (0 matches all).
	Sessions int `json:"sessions,omitempty"`
	// SLO holds the replacement gates (non-zero fields win).
	SLO SLO `json:"slo"`
}

// Soak is the long-hold run: create Sessions live sessions and keep
// ingesting (rolling in replacement sessions as streams exhaust) for
// DurationSec, sampling lag, RSS and goroutine counts throughout.
type Soak struct {
	// Workload names the workload to ingest; must be declared.
	Workload string `json:"workload"`
	// Topology is the server shape; zero selects "single".
	Topology string `json:"topology,omitempty"`
	// Sessions is how many live sessions to hold.
	Sessions int `json:"sessions"`
	// DurationSec is the wall-clock hold time.
	DurationSec int `json:"duration_sec"`
	// SampleEverySec is the sampling period. Zero selects 5.
	SampleEverySec int `json:"sample_every_sec,omitempty"`
	// Workers is the ingest worker-pool size. Zero selects 8.
	Workers int `json:"workers,omitempty"`
	// Readers is query goroutines sampling random live sessions. Zero
	// selects 2.
	Readers int `json:"readers,omitempty"`
}

// Limits that keep a matrix physically runnable; exceeding them is a
// spec error, not an OOM.
const (
	maxWorkloadSize = 1_000_000
	maxSessions     = 100_000
	maxAgentKnob    = 64
	maxReaders      = 64
	maxReachBatch   = 1024
	maxScenarios    = 4096
)

func validTopology(t string) bool { return t == "single" || t == "replica" || t == "cluster3" }
func validTransport(t string) bool {
	return t == "binary" || t == "json"
}

// Parse decodes and validates a matrix specification. Unknown fields,
// malformed JSON, and every out-of-range or inconsistent combination
// are rejected with a *SpecError; Parse never panics on any input.
func Parse(data []byte) (*Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, specErr("json", "%v", err)
	}
	// A second document after the matrix is a malformed file, not
	// trailing garbage to ignore.
	if dec.More() {
		return nil, specErr("json", "trailing data after the matrix object")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	m.fill()
	return &m, nil
}

// ParseFile reads and parses the matrix at path.
func ParseFile(path string) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// fill applies the documented defaults after validation.
func (m *Matrix) fill() {
	if m.Defaults.Batch == 0 {
		m.Defaults.Batch = 128
	}
	if m.Defaults.Seed == 0 {
		m.Defaults.Seed = 1
	}
	for i := range m.Workloads {
		if m.Workloads[i].Size == 0 {
			m.Workloads[i].Size = 2000
		}
	}
	if len(m.Mixes) == 0 && m.scenarioDims() {
		m.Mixes = []Mix{{Name: "default", Readers: 2, ReachBatch: 8}}
	}
	for i := range m.Mixes {
		if m.Mixes[i].ReachBatch == 0 {
			m.Mixes[i].ReachBatch = 1
		}
	}
	if s := m.Soak; s != nil {
		if s.Topology == "" {
			s.Topology = "single"
		}
		if s.SampleEverySec == 0 {
			s.SampleEverySec = 5
		}
		if s.Workers == 0 {
			s.Workers = 8
		}
		if s.Readers == 0 {
			s.Readers = 2
		}
	}
}

// scenarioDims reports whether any scenario dimension is declared.
func (m *Matrix) scenarioDims() bool {
	return len(m.Topologies) > 0 || len(m.Transports) > 0 || len(m.Sessions) > 0 || len(m.Mixes) > 0
}

func (m *Matrix) validate() error {
	if m.Defaults.Batch < 0 || m.Defaults.Batch > maxWorkloadSize {
		return specErr("defaults.batch", "%d outside [0, %d]", m.Defaults.Batch, maxWorkloadSize)
	}
	if m.Defaults.Seed < 0 {
		return specErr("defaults.seed", "%d is negative", m.Defaults.Seed)
	}
	if len(m.Workloads) == 0 {
		return specErr("workloads", "a matrix needs at least one workload")
	}
	names := map[string]bool{}
	for i, w := range m.Workloads {
		p := fmt.Sprintf("workloads[%d]", i)
		if w.Name == "" {
			return specErr(p+".name", "missing")
		}
		if names[w.Name] {
			return specErr(p+".name", "duplicate workload %q", w.Name)
		}
		names[w.Name] = true
		if w.Size < 0 || w.Size > maxWorkloadSize {
			return specErr(p+".size", "%d outside [0, %d]", w.Size, maxWorkloadSize)
		}
		switch w.Kind {
		case "grammar":
			if w.Spec == "" {
				return specErr(p+".spec", "kind \"grammar\" needs a built-in specification name")
			}
			if _, ok := service.Builtin(w.Spec); !ok {
				return specErr(p+".spec", "unknown built-in specification %q (have %v)", w.Spec, service.BuiltinNames())
			}
			if w.Depth != 0 || w.Fanout != 0 || w.Retries != 0 {
				return specErr(p, "depth/fanout/retries steer the agent generator; kind \"grammar\" takes none")
			}
		case "agent":
			if w.Spec != "" {
				return specErr(p+".spec", "kind \"agent\" always uses the Agent grammar; drop spec %q", w.Spec)
			}
			for _, k := range []struct {
				name string
				v    int
			}{{"depth", w.Depth}, {"fanout", w.Fanout}, {"retries", w.Retries}} {
				if k.v < 0 || k.v > maxAgentKnob {
					return specErr(p+"."+k.name, "%d outside [0, %d]", k.v, maxAgentKnob)
				}
			}
		case "":
			return specErr(p+".kind", "missing (\"grammar\" or \"agent\")")
		default:
			return specErr(p+".kind", "unknown kind %q (\"grammar\" or \"agent\")", w.Kind)
		}
	}

	if !m.scenarioDims() && m.Soak == nil {
		return specErr("topologies", "a matrix needs scenario dimensions, a soak, or both")
	}
	if m.scenarioDims() {
		if len(m.Topologies) == 0 {
			return specErr("topologies", "missing (scenario dimensions are declared)")
		}
		if len(m.Transports) == 0 {
			return specErr("transports", "missing (scenario dimensions are declared)")
		}
		if len(m.Sessions) == 0 {
			return specErr("sessions", "missing (scenario dimensions are declared)")
		}
	}
	seen := map[string]bool{}
	for i, t := range m.Topologies {
		if !validTopology(t) {
			return specErr(fmt.Sprintf("topologies[%d]", i), "unknown topology %q (single, replica, cluster3)", t)
		}
		if seen[t] {
			return specErr(fmt.Sprintf("topologies[%d]", i), "duplicate topology %q", t)
		}
		seen[t] = true
	}
	seen = map[string]bool{}
	for i, t := range m.Transports {
		if !validTransport(t) {
			return specErr(fmt.Sprintf("transports[%d]", i), "unknown transport %q (binary, json)", t)
		}
		if seen[t] {
			return specErr(fmt.Sprintf("transports[%d]", i), "duplicate transport %q", t)
		}
		seen[t] = true
	}
	seenN := map[int]bool{}
	for i, n := range m.Sessions {
		if n < 1 || n > maxSessions {
			return specErr(fmt.Sprintf("sessions[%d]", i), "%d outside [1, %d]", n, maxSessions)
		}
		if seenN[n] {
			return specErr(fmt.Sprintf("sessions[%d]", i), "duplicate session count %d", n)
		}
		seenN[n] = true
	}
	mixNames := map[string]bool{}
	for i, mx := range m.Mixes {
		p := fmt.Sprintf("mixes[%d]", i)
		if mx.Name == "" {
			return specErr(p+".name", "missing")
		}
		if mixNames[mx.Name] {
			return specErr(p+".name", "duplicate mix %q", mx.Name)
		}
		mixNames[mx.Name] = true
		if mx.Readers < 0 || mx.Readers > maxReaders {
			return specErr(p+".readers", "%d outside [0, %d]", mx.Readers, maxReaders)
		}
		if mx.ReachBatch < 0 || mx.ReachBatch > maxReachBatch {
			return specErr(p+".reach_batch", "%d outside [0, %d]", mx.ReachBatch, maxReachBatch)
		}
		if mx.LineageEvery < 0 {
			return specErr(p+".lineage_every", "%d is negative", mx.LineageEvery)
		}
	}

	if err := m.SLO.validate("slo"); err != nil {
		return err
	}
	for i, o := range m.Overrides {
		p := fmt.Sprintf("overrides[%d]", i)
		if o.Workload != "" && !names[o.Workload] {
			return specErr(p+".workload", "matches no declared workload %q", o.Workload)
		}
		if o.Topology != "" && !contains(m.Topologies, o.Topology) {
			return specErr(p+".topology", "matches no declared topology %q", o.Topology)
		}
		if o.Transport != "" && !contains(m.Transports, o.Transport) {
			return specErr(p+".transport", "matches no declared transport %q", o.Transport)
		}
		if o.Mix != "" && !mixNames[o.Mix] {
			return specErr(p+".mix", "matches no declared mix %q", o.Mix)
		}
		if o.Sessions < 0 {
			return specErr(p+".sessions", "%d is negative", o.Sessions)
		}
		if o.Sessions != 0 && !containsInt(m.Sessions, o.Sessions) {
			return specErr(p+".sessions", "matches no declared session count %d", o.Sessions)
		}
		if o.SLO == (SLO{}) {
			return specErr(p+".slo", "an override without gates changes nothing")
		}
		if err := o.SLO.validate(p + ".slo"); err != nil {
			return err
		}
	}

	if s := m.Soak; s != nil {
		if s.Workload == "" {
			return specErr("soak.workload", "missing")
		}
		if !names[s.Workload] {
			return specErr("soak.workload", "matches no declared workload %q", s.Workload)
		}
		if s.Topology != "" && !validTopology(s.Topology) {
			return specErr("soak.topology", "unknown topology %q (single, replica, cluster3)", s.Topology)
		}
		if s.Sessions < 1 || s.Sessions > maxSessions {
			return specErr("soak.sessions", "%d outside [1, %d]", s.Sessions, maxSessions)
		}
		if s.DurationSec < 1 || s.DurationSec > 24*3600 {
			return specErr("soak.duration_sec", "%d outside [1, 86400]", s.DurationSec)
		}
		if s.SampleEverySec < 0 || s.SampleEverySec > s.DurationSec {
			return specErr("soak.sample_every_sec", "%d outside [0, duration %d]", s.SampleEverySec, s.DurationSec)
		}
		if s.Workers < 0 || s.Workers > 1024 {
			return specErr("soak.workers", "%d outside [0, 1024]", s.Workers)
		}
		if s.Readers < 0 || s.Readers > maxReaders {
			return specErr("soak.readers", "%d outside [0, %d]", s.Readers, maxReaders)
		}
	}

	if n := len(m.Workloads) * len(m.Topologies) * len(m.Transports) * len(m.Sessions) * max(len(m.Mixes), 1); n > maxScenarios {
		return specErr("workloads", "cross product is %d scenarios, more than %d", n, maxScenarios)
	}
	return nil
}

func (s SLO) validate(path string) error {
	if s.P99IngestUS < 0 {
		return specErr(path+".p99_ingest_us", "%d is negative", s.P99IngestUS)
	}
	if s.P99QueryUS < 0 {
		return specErr(path+".p99_query_us", "%d is negative", s.P99QueryUS)
	}
	if s.MinEventsPerSec < 0 || s.MinEventsPerSec != s.MinEventsPerSec {
		return specErr(path+".min_events_per_sec", "%v is not a non-negative number", s.MinEventsPerSec)
	}
	if s.MaxReplicaLagEvents < 0 {
		return specErr(path+".max_replica_lag_events", "%d is negative", s.MaxReplicaLagEvents)
	}
	return nil
}

// Scenario is one fully-bound cell of the matrix cross product.
type Scenario struct {
	// Name is "workload/topology/transport/sN/mix", unique per matrix.
	Name      string   `json:"name"`
	Workload  Workload `json:"workload"`
	Topology  string   `json:"topology"`
	Transport string   `json:"transport"`
	Sessions  int      `json:"sessions"`
	Mix       Mix      `json:"mix"`
	Batch     int      `json:"batch"`
	Verify    bool     `json:"verify"`
	Seed      int64    `json:"seed"`
	SLO       SLO      `json:"slo"`
}

// Expand materializes the cross product in declaration order, with
// overrides applied (later overrides win on the fields they set).
func (m *Matrix) Expand() []Scenario {
	var out []Scenario
	for _, w := range m.Workloads {
		for _, topo := range m.Topologies {
			for _, tr := range m.Transports {
				for _, n := range m.Sessions {
					for _, mx := range m.Mixes {
						sc := Scenario{
							Name:      fmt.Sprintf("%s/%s/%s/s%d/%s", w.Name, topo, tr, n, mx.Name),
							Workload:  w,
							Topology:  topo,
							Transport: tr,
							Sessions:  n,
							Mix:       mx,
							Batch:     m.Defaults.Batch,
							Verify:    m.Defaults.Verify,
							Seed:      m.Defaults.Seed,
							SLO:       m.SLO,
						}
						for _, o := range m.Overrides {
							if o.matches(sc) {
								sc.SLO = sc.SLO.merge(o.SLO)
							}
						}
						out = append(out, sc)
					}
				}
			}
		}
	}
	return out
}

func (o Override) matches(sc Scenario) bool {
	if o.Workload != "" && o.Workload != sc.Workload.Name {
		return false
	}
	if o.Topology != "" && o.Topology != sc.Topology {
		return false
	}
	if o.Transport != "" && o.Transport != sc.Transport {
		return false
	}
	if o.Mix != "" && o.Mix != sc.Mix.Name {
		return false
	}
	if o.Sessions != 0 && o.Sessions != sc.Sessions {
		return false
	}
	return true
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
