package wal

import (
	"time"

	"wfreach/internal/obs"
)

// Metrics is the WAL plane's instrument set. One Metrics is built per
// node (constructor path — see NewMetrics) and shared by every
// session's Log plus the node's Committer; the hot paths only touch
// the pre-registered atomics.
type Metrics struct {
	// AppendLatency is sampled — one in appendSampleEvery frame appends
	// is timed — so the distribution stays representative without
	// paying two clock reads per frame on saturated ingest.
	AppendLatency *obs.Hist
	// CommitLatency is a batch's wait in the group committer: append
	// acknowledged to durable on disk. Observed by the service around
	// Committer.Commit.
	CommitLatency *obs.Hist
	// FlushLatency covers a whole flush (buffer write + fsync);
	// FsyncLatency the fsync alone.
	FlushLatency *obs.Hist
	FsyncLatency *obs.Hist
	// Appends counts records entering the log, AppendedBytes their
	// frames' bytes, headers included.
	Appends       *obs.Counter
	AppendedBytes *obs.Counter
	// CommitRounds / CommitLogs size the group commit: logs-per-round
	// is CommitLogs / CommitRounds.
	CommitRounds *obs.Counter
	CommitLogs   *obs.Counter
	// ChainedFrames counts frames folded into the hash chain — one per
	// acknowledged batch, where Appends counts its records.
	ChainedFrames *obs.Counter
}

// appendSampleEvery is the append-latency sampling period.
const appendSampleEvery = 16

// NewMetrics registers the WAL instrument set in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		AppendLatency: r.Histogram("wf_wal_append_seconds", "WAL frame append latency (sampled)."),
		CommitLatency: r.Histogram("wf_wal_commit_seconds", "Group-commit wait per acknowledged batch."),
		FlushLatency:  r.Histogram("wf_wal_flush_seconds", "WAL flush latency (buffered write plus fsync)."),
		FsyncLatency:  r.Histogram("wf_wal_fsync_seconds", "WAL fsync latency."),
		Appends:       r.Counter("wf_wal_appends_total", "WAL records (events) appended."),
		AppendedBytes: r.Counter("wf_wal_append_bytes_total", "WAL bytes appended (framed)."),
		CommitRounds:  r.Counter("wf_wal_commit_rounds_total", "Group-commit flush rounds led."),
		CommitLogs:    r.Counter("wf_wal_commit_logs_total", "Logs flushed across group-commit rounds."),
		ChainedFrames: r.Counter("wf_wal_chain_frames_total", "WAL frames (one per batch) folded into the hash chain."),
	}
}

// SetMetrics attaches the instrument set to the log. Call it right
// after Open, before the log sees traffic; a nil m detaches.
func (l *Log) SetMetrics(m *Metrics) {
	l.mu.Lock()
	l.metrics = m
	l.mu.Unlock()
}

// SetMetrics attaches the instrument set to the committer; rounds it
// leads afterwards record their size. A nil m detaches.
func (c *Committer) SetMetrics(m *Metrics) {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
}

// observeFlush records one flush round's latencies.
func (m *Metrics) observeFlush(total, fsync time.Duration, synced bool) {
	if m == nil {
		return
	}
	m.FlushLatency.Add(total)
	if synced {
		m.FsyncLatency.Add(fsync)
	}
}
