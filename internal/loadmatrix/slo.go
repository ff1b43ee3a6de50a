package loadmatrix

import (
	"fmt"
	"math"
)

// Metrics is what one scenario (or soak) measured, in the report's
// stable units. The fields after CatchupSec appear only in flag-mode
// runs that ask for them.
type Metrics struct {
	ElapsedSec   float64 `json:"elapsed_sec"`
	IngestEvents int64   `json:"ingest_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	IngestP50US  float64 `json:"ingest_p50_us"`
	IngestP95US  float64 `json:"ingest_p95_us"`
	IngestP99US  float64 `json:"ingest_p99_us"`

	Queries        int64   `json:"queries"`
	LineageQueries int64   `json:"lineage_queries,omitempty"`
	QueryErrors    int64   `json:"query_errors"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	QueryP50US     float64 `json:"query_p50_us"`
	QueryP95US     float64 `json:"query_p95_us"`
	QueryP99US     float64 `json:"query_p99_us"`

	VerifyChecked    bool  `json:"verify_checked"`
	VerifyMismatches int64 `json:"verify_mismatches"`

	// HasReplica gates the lag SLO: lag is only meaningful on
	// topologies with a follower.
	HasReplica          bool    `json:"has_replica,omitempty"`
	ReplicaLagSamples   int     `json:"replica_lag_samples,omitempty"`
	ReplicaLagMaxEvents int64   `json:"replica_lag_max_events,omitempty"`
	CatchupSec          float64 `json:"catchup_sec,omitempty"`

	// PerNode is acknowledged ingest events per node, when the write
	// driver is a cluster client.
	PerNode map[string]int64 `json:"per_node,omitempty"`
	// Move is the live move made mid-ingest, when one was asked for.
	Move *MoveResult `json:"move,omitempty"`
	// RecoveredVertices is, on resume, the vertices the restarted
	// server held across the sessions; ArenaVertices how many of them
	// it serves from a mapped snapshot.
	RecoveredVertices int64 `json:"recovered_vertices,omitempty"`
	ArenaVertices     int64 `json:"arena_vertices,omitempty"`
}

// MoveResult records a live session move: the nodes it left and
// reached, the events handed off, and how long the move call took.
type MoveResult struct {
	Session string  `json:"session"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Events  int64   `json:"events"`
	Sec     float64 `json:"sec"`
}

// Violation is one failed SLO gate.
type Violation struct {
	// Metric names the gate ("p99_ingest_us", "min_events_per_sec",
	// "max_replica_lag_events", "verify_mismatches").
	Metric string `json:"metric"`
	// Value is the measurement, Limit the gate.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// Reason is the human-readable failure.
	Reason string `json:"reason"`
}

// Evaluate applies the SLO gates to the measured metrics. A zero gate
// is skipped. A measurement exactly at its limit passes. A gated
// metric that has no samples — or comes out NaN/Inf — is a loud
// violation, never a silent pass: an SLO that measured nothing proved
// nothing. The replica-lag gate applies only when the topology has a
// follower. Verification mismatches always violate when verification
// ran, gate or no gate.
func Evaluate(slo SLO, m Metrics) []Violation {
	var out []Violation
	ceiling := func(metric string, value float64, limit float64, samples bool) {
		switch {
		case !samples:
			out = append(out, Violation{Metric: metric, Value: value, Limit: limit,
				Reason: fmt.Sprintf("%s is gated but measured no samples", metric)})
		case math.IsNaN(value) || math.IsInf(value, 0):
			out = append(out, Violation{Metric: metric, Value: value, Limit: limit,
				Reason: fmt.Sprintf("%s is %v, not a finite measurement", metric, value)})
		case value > limit:
			out = append(out, Violation{Metric: metric, Value: value, Limit: limit,
				Reason: fmt.Sprintf("%s = %.0f exceeds the limit %.0f", metric, value, limit)})
		}
	}

	if slo.P99IngestUS > 0 {
		ceiling("p99_ingest_us", m.IngestP99US, float64(slo.P99IngestUS), m.IngestEvents > 0)
	}
	if slo.P99QueryUS > 0 {
		ceiling("p99_query_us", m.QueryP99US, float64(slo.P99QueryUS), m.Queries > 0)
	}
	if slo.MinEventsPerSec > 0 {
		v := m.EventsPerSec
		switch {
		case m.IngestEvents == 0:
			out = append(out, Violation{Metric: "min_events_per_sec", Value: v, Limit: slo.MinEventsPerSec,
				Reason: "min_events_per_sec is gated but no events were ingested"})
		case math.IsNaN(v) || math.IsInf(v, 0):
			out = append(out, Violation{Metric: "min_events_per_sec", Value: v, Limit: slo.MinEventsPerSec,
				Reason: fmt.Sprintf("events_per_sec is %v, not a finite measurement", v)})
		case v < slo.MinEventsPerSec:
			out = append(out, Violation{Metric: "min_events_per_sec", Value: v, Limit: slo.MinEventsPerSec,
				Reason: fmt.Sprintf("events_per_sec = %.0f is below the floor %.0f", v, slo.MinEventsPerSec)})
		}
	}
	if slo.MaxReplicaLagEvents > 0 && m.HasReplica {
		ceiling("max_replica_lag_events", float64(m.ReplicaLagMaxEvents),
			float64(slo.MaxReplicaLagEvents), m.ReplicaLagSamples > 0)
	}
	if m.VerifyChecked && m.VerifyMismatches > 0 {
		out = append(out, Violation{Metric: "verify_mismatches", Value: float64(m.VerifyMismatches), Limit: 0,
			Reason: fmt.Sprintf("%d query answers contradicted BFS ground truth", m.VerifyMismatches)})
	}
	return out
}
