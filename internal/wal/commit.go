package wal

import (
	"slices"
	"sync"
)

// Committer coalesces log commits across sessions — the group-commit
// half of the durable registry. Every acknowledged batch must end with
// its events flushed (and, as the log is configured, fsynced); doing
// that once per batch serializes ingest behind the disk. A Committer
// instead lets batches enqueue "make my log durable up to sequence S"
// requests: one caller becomes the leader, flushes every log with
// pending requests in a single round — in parallel across logs — and
// wakes all waiters the round covered, so one flush/fsync per log is
// amortized over every batch (on any session) that queued while the
// previous round was on the disk.
//
// A Committer has no background goroutine: leadership is taken by
// whichever committing goroutine arrives while no leader is active,
// and lapses when no requests are pending.
type Committer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	leading bool
	pending map[*Log]int64 // highest requested append sequence per log
	errs    map[*Log]error // first commit failure per log; permanent
	metrics *Metrics       // optional round-size instruments (SetMetrics)

	// The leader's own state, reused round after round so a round
	// allocates nothing: the pending set it is draining (swapped with
	// pending, empty between rounds) and the outcome of each flush.
	draining map[*Log]int64
	results  []outcome
}

// outcome is one log's flush in a commit round.
type outcome struct {
	log   *Log
	cover int64
	err   error
}

// NewCommitter returns an empty commit coordinator.
func NewCommitter() *Committer {
	c := &Committer{
		pending:  make(map[*Log]int64),
		draining: make(map[*Log]int64),
		errs:     make(map[*Log]error),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Commit blocks until everything appended to l up to sequence seq
// (see Log.AppendSeq) is flushed — and fsynced, if l was opened with
// fsync — or until committing l has failed. A log whose commit failed
// once is poisoned: every later Commit returns the same error, because
// the log can no longer promise that acknowledged records are on disk.
func (c *Committer) Commit(l *Log, seq int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := c.errs[l]; err != nil {
			return err
		}
		if l.durableSeq.Load() >= seq {
			return nil
		}
		if c.pending[l] < seq {
			c.pending[l] = seq
		}
		if c.leading {
			// A leader is flushing; it will broadcast after each round.
			c.cond.Wait()
			continue
		}
		c.lead()
		// Leadership lapsed with no pending work; loop to re-check our
		// own log's outcome.
	}
}

// lead drains the pending set, flushing each log once per round.
// Called with c.mu held; returns with c.mu held. The mutex is
// released during the disk I/O, so new requests pile into c.pending
// and are served by the next round.
func (c *Committer) lead() {
	c.leading = true
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending, c.draining = c.draining, batch
		if c.metrics != nil {
			c.metrics.CommitRounds.Inc()
			c.metrics.CommitLogs.Add(int64(len(batch)))
		}
		c.mu.Unlock()

		// Each flush writes its own slot; a lone log is flushed inline,
		// several in parallel.
		c.results = slices.Grow(c.results[:0], len(batch))[:len(batch)]
		if len(batch) == 1 {
			for log := range batch {
				c.results[0] = flush(log)
			}
		} else {
			var wg sync.WaitGroup
			i := 0
			for log := range batch {
				wg.Add(1)
				go func(r *outcome, log *Log) {
					defer wg.Done()
					*r = flush(log)
				}(&c.results[i], log)
				i++
			}
			wg.Wait()
		}

		c.mu.Lock()
		clear(batch)
		for _, r := range c.results {
			if r.err != nil {
				if c.errs[r.log] == nil {
					c.errs[r.log] = r.err
				}
			} else {
				// advanceDurable is monotonic and wakes tailers; Flush
				// already advanced to cover, but an older concurrent round
				// must never regress it.
				r.log.advanceDurable(r.cover)
			}
		}
		clear(c.results) // hold no log past its round
		c.cond.Broadcast()
	}
	c.leading = false
}

// flush commits one log of a round. Everything appended before the
// flush starts is covered by it; capturing the sequence first makes the
// claim conservative.
func flush(log *Log) outcome {
	cover := log.AppendSeq()
	return outcome{log, cover, log.Flush()}
}
