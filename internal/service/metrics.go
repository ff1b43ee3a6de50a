package service

import (
	"time"

	"wfreach/internal/obs"
	"wfreach/internal/wal"
)

// nodeMetrics is the registry's instrument set — one per node, built
// once in NewDurableRegistry (constructor path). Registration in obs is
// idempotent, so the replication and cluster subsystems re-register
// the shared families (replica lag, move and rejection counters)
// against the same obs.Registry and land on the same atomics; building
// them here too guarantees every family a monitor expects is present
// on the scrape from the moment the node is up, clustered or not.
type nodeMetrics struct {
	obs *obs.Registry

	sessions     *obs.Gauge
	ingestEvents *obs.CounterVec
	ingestBytes  *obs.CounterVec
	publishEpoch *obs.GaugeVec

	wal *wal.Metrics

	snapWrites   *obs.Counter
	snapErrors   *obs.Counter
	snapWriteSec *obs.Hist
	restoreSec   *obs.Hist
	restores     *obs.Counter
	arenaMaps    *obs.Gauge
	arenaVerts   *obs.Gauge
	arenaBytes   *obs.Gauge

	chainFrames    *obs.Counter
	chainVerifySec *obs.Hist

	replicaLagEvents  *obs.Gauge
	replicaLagSeconds *obs.FloatGauge
	moves             *obs.CounterVec
	rejections        *obs.CounterVec
}

func newNodeMetrics(r *obs.Registry) *nodeMetrics {
	m := &nodeMetrics{
		obs:          r,
		sessions:     r.Gauge("wf_sessions", "Open sessions."),
		ingestEvents: r.CounterVec("wf_ingest_events_total", "Events ingested, by session (capped; overflow in \"other\").", "session"),
		ingestBytes:  r.CounterVec("wf_ingest_bytes_total", "Ingest request bytes, by session (capped; overflow in \"other\").", "session"),
		publishEpoch: r.GaugeVec("wf_publish_epoch", "Store publish epoch, by session (capped; overflow in \"other\").", "session"),

		wal: wal.NewMetrics(r),

		snapWrites:   r.Counter("wf_snapshot_writes_total", "Arena snapshots written."),
		snapErrors:   r.Counter("wf_snapshot_errors_total", "Arena snapshot writes that failed."),
		snapWriteSec: r.Histogram("wf_snapshot_write_seconds", "Arena snapshot write duration."),
		restoreSec:   r.Histogram("wf_snapshot_restore_seconds", "Session restore duration."),
		restores:     r.Counter("wf_restore_sessions_total", "Sessions restored from the data directory."),
		arenaMaps:    r.Gauge("wf_arena_maps", "Arena snapshots the process holds mapped."),
		arenaVerts:   r.Gauge("wf_arena_vertices", "Vertices served zero-copy from mapped arenas."),
		arenaBytes:   r.Gauge("wf_arena_mapped_bytes", "Bytes of arena snapshots the process holds mapped."),

		chainFrames:    r.Counter("wf_chain_verify_frames_total", "WAL frames hashed during chain verification."),
		chainVerifySec: r.Histogram("wf_chain_verify_seconds", "Chain verification pass duration."),

		replicaLagEvents:  r.Gauge("wf_replica_lag_events", "Worst follower tail lag across sessions, in events."),
		replicaLagSeconds: r.FloatGauge("wf_replica_lag_seconds", "Approximate follower tail lag, in seconds."),
		moves:             r.CounterVec("wf_cluster_moves_total", "Cluster session-move phase transitions.", "phase"),
		rejections:        r.CounterVec("wf_cluster_rejections_total", "Placement rejections served.", "code"),
	}
	// Pre-create the series CI's mid-drill curl asserts on, and the
	// rejected moves an operator alerts on, so they are numeric from the
	// first scrape rather than absent until the first move or misrouted
	// request.
	m.moves.With("completed")
	m.moves.With("rejected")
	m.rejections.With("wrong_node")
	m.rejections.With("read_only")
	return m
}

// Obs returns the node's metrics registry — the exposition mounted at
// GET /v1/metrics, and the registration point for the replication and
// cluster subsystems' instruments.
func (r *Registry) Obs() *obs.Registry { return r.metrics.obs }

// bindMetrics resolves the session's per-session series once, at
// create/restore time, so the ingest path adds to cached atomics
// instead of looking label values up per batch.
func (s *Session) bindMetrics(m *nodeMetrics) {
	s.metrics = m
	s.mEvents = m.ingestEvents.With(s.name)
	s.mBytes = m.ingestBytes.With(s.name)
	s.mEpoch = m.publishEpoch.With(s.name)
}

// arenaMapped moves the mapped-arena gauges by one mapping of that many
// labels and bytes: sign +1 when a restore adopts it, -1 when its store
// gives it back.
func (m *nodeMetrics) arenaMapped(sign, labels, bytes int64) {
	m.arenaMaps.Add(sign)
	m.arenaVerts.Add(sign * labels)
	m.arenaBytes.Add(sign * bytes)
}

// forgetSession drops the deleted session's labeled series.
func (m *nodeMetrics) forgetSession(name string) {
	m.ingestEvents.Forget(name)
	m.ingestBytes.Forget(name)
	m.publishEpoch.Forget(name)
}

// AddIngestBytes attributes wire bytes to the session's ingest-bytes
// counter — the HTTP layer calls it with the request body size.
func (s *Session) AddIngestBytes(n int64) {
	if s.mBytes != nil {
		s.mBytes.Add(n)
	}
}

// observeCommit wraps the group-commit wait with its latency
// instrument.
func (s *Session) observeCommit(start time.Time) {
	if s.metrics != nil {
		s.metrics.wal.CommitLatency.Add(time.Since(start))
	}
}

// observeSnapshot records one arena snapshot write attempt.
func (s *Session) observeSnapshot(start time.Time, err error) {
	if s.metrics == nil {
		return
	}
	if err != nil {
		s.metrics.snapErrors.Inc()
		return
	}
	s.metrics.snapWrites.Inc()
	s.metrics.snapWriteSec.Add(time.Since(start))
}

// chainVerified records one hash-chain verification pass over frames
// WAL frames.
func (m *nodeMetrics) chainVerified(start time.Time, frames int64) {
	m.chainFrames.Add(frames)
	m.chainVerifySec.Add(time.Since(start))
}
