package service

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
)

// TestIngestScratchDiesWithTheBatch is the lifetime contract of the
// ingest path's shared buffers, under -race: a record's predecessors
// and a batch's frames alias scratch that is the caller's again the
// moment AppendRecords returns, and the label an insertion issues lives
// in the session's entry buffer only until the next one.
//
// Two durable sessions take their first events through AppendRecords
// from one caller-owned scratch — predecessor arena, frame buffer and
// the session's entry buffer all defaced after every batch — and ten
// thousand more through one handler, two clients at once, the shared
// scratch defaced between requests. Then every stored label must equal
// a fresh labeler's, and each session's log the frames its client sent.
func TestIngestScratchDiesWithTheBatch(t *testing.T) {
	dir := t.TempDir()
	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
	g := compileBuiltin(t, "BioAID")
	type client struct {
		s      *Session
		events []run.Event
	}
	clients := map[string]*client{"a": {}, "b": {}}
	for name, c := range clients {
		var err error
		if c.s, err = reg.Create(name, g, Config{}); err != nil {
			t.Fatal(err)
		}
		c.events, _ = genEvents(t, g, 8000, int64(len(name))+int64(name[0]))
	}

	// One scratch for both sessions, batches interleaved.
	const direct = 2000
	var b batchScratch
	var arena []graph.VertexID
	for lo := 0; lo < direct; lo += 100 {
		for _, c := range clients {
			for _, ev := range c.events[lo : lo+100] {
				frame, err := wal.AppendFrame(nil, wal.RefRecord(ev))
				if err != nil {
					t.Fatal(err)
				}
				recs, err := wal.DecodePayload(nil, &arena, frame[wal.FrameHeaderSize:])
				if err != nil || len(recs) != 1 {
					t.Fatalf("%d records, %v", len(recs), err)
				}
				b.add(recs[0], frame)
			}
			if n, err := c.s.AppendRecords(b.recs, b.frames); err != nil || n != 100 {
				t.Fatalf("batch at %d: applied %d: %v", lo, n, err)
			}
			for i := range arena {
				arena[i] = -9
			}
			for i := range b.buf {
				b.buf[i] = 0xaa
			}
			c.s.ingestMu.Lock()
			for i := range c.s.entries[:cap(c.s.entries)] {
				c.s.entries[:cap(c.s.entries)][i] = label.Entry{Index: -7}
			}
			c.s.ingestMu.Unlock()
			b.reset()
			arena = arena[:0]
		}
	}

	// The rest over HTTP: both clients at once on one handler, request
	// sizes on both sides of the handler's chunk.
	h := NewHandler(reg)
	var wg sync.WaitGroup
	for name, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(name[0])))
			for lo := direct; lo < len(c.events); {
				hi := min(lo+1+rng.Intn(2*binaryChunk), len(c.events))
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+name+"/events", bytes.NewReader(frameStream(t, c.events[lo:hi])))
				req.Header.Set("Content-Type", api.ContentTypeFrame)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("session %s: ingest [%d,%d): %d %s", name, lo, hi, rec.Code, rec.Body)
					return
				}
				lo = hi
				// Whatever scratch the free list hands out next holds
				// nothing of a finished request, and may be scribbled over.
				sc := reg.ingestScratch.get()
				for _, r := range sc.batch.recs[:cap(sc.batch.recs)] {
					if r.Ref.Preds != nil || r.NamedEv.Preds != nil || r.NamedEv.Name != "" {
						t.Errorf("idle scratch still references record %+v", r)
						return
					}
				}
				for _, f := range sc.batch.frames[:cap(sc.batch.frames)] {
					if f != nil {
						t.Errorf("idle scratch still references a frame")
						return
					}
				}
				buf := sc.batch.buf[:cap(sc.batch.buf)]
				for i := range buf {
					buf[i] = 0xaa
				}
				reg.ingestScratch.put(sc)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(clients["a"].events)+len(clients["b"].events)-2*direct < 10_000 {
		t.Fatal("fewer than ten thousand events went through the handler")
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	codec := label.NewCodec(g)
	for name, c := range clients {
		fresh, err := core.LabelExecution(g, c.events, skeleton.TCL, core.RModeDesignated)
		if err != nil {
			t.Fatal(err)
		}
		got := storeBytes(c.s)
		if len(got) != len(c.events) {
			t.Fatalf("session %s holds %d labels, sent %d events", name, len(got), len(c.events))
		}
		for _, ev := range c.events {
			if want := codec.Encode(fresh.MustLabel(ev.V)); !bytes.Equal(got[int32(ev.V)], want) {
				t.Fatalf("session %s: vertex %d stored as %x, a fresh labeler says %x", name, ev.V, got[int32(ev.V)], want)
			}
		}
		logged, err := os.ReadFile(filepath.Join(dir, name, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logged, frameStream(t, c.events)) {
			t.Fatalf("session %s: the log is not the frames its client sent", name)
		}
	}
}

// TestHTTPBinaryIngestRefusesGraphIDPastInt32: a frame whose graph
// field does not fit an int32 — here a real event's graph plus 2³², CRC
// intact — used to be truncated to that graph, labeled, acked, and teed
// verbatim into the log, where it no longer matched the record it had
// been decoded to. It is a bad frame: the intact prefix is applied, the
// rest is not, and the log holds the prefix's frames and nothing else.
func TestHTTPBinaryIngestRefusesGraphIDPastInt32(t *testing.T) {
	refuseForgedFrame(t, 10, func(ev run.Event) []byte {
		return framed(classicPayload(uint64(ev.V), 1<<32+uint64(ev.Ref.Graph), uint64(ev.Ref.V), ev.Preds))
	})
}

// TestLineagePagesDuringIngest: while one writer ingests, readers page
// through closures with random limits. A walk sees at least every batch
// published before its first page started (it may see more — a later
// page reads later state), reports nothing that is not an ancestor, and
// stays ascending across pages.
func TestLineagePagesDuringIngest(t *testing.T) {
	bio := compileBuiltin(t, "BioAID")
	bioEvents, _ := genEvents(t, bio, 5000, 12)
	agent, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		g      *spec.Grammar
		events []run.Event
	}{"BioAID": {bio, bioEvents}, "agent": {agent.Run.Grammar, agent.Events}} {
		s, err := durableReg(t, t.TempDir(), DurableOptions{}).Create(name, c.g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		events := c.events
		preds := make(map[graph.VertexID][]graph.VertexID, len(events))
		pos := make(map[graph.VertexID]int, len(events))
		for i, ev := range events {
			preds[ev.V], pos[ev.V] = ev.Preds, i
		}
		// ancestors is the oracle: reverse breadth-first search over the
		// events' own predecessor lists (reflexive, like lineage).
		ancestors := func(v graph.VertexID) map[graph.VertexID]bool {
			seen := map[graph.VertexID]bool{v: true}
			for queue := []graph.VertexID{v}; len(queue) > 0; queue = queue[1:] {
				for _, p := range preds[queue[0]] {
					if !seen[p] {
						seen[p] = true
						queue = append(queue, p)
					}
				}
			}
			return seen
		}

		var wg sync.WaitGroup
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for lo := 0; lo < len(events); lo += 64 {
				if _, err := s.Append(events[lo:min(lo+64, len(events))]); err != nil {
					t.Errorf("%s: append at %d: %v", name, lo, err)
					return
				}
			}
		}()
		for ri := range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ri)))
				for walks := 0; ; walks++ {
					select {
					case <-done:
						if walks > 20 {
							return
						}
					default:
					}
					n := int(s.Vertices()) // published before the walk starts
					if n == 0 {
						continue
					}
					v := events[rng.Intn(n)].V
					want := ancestors(v)
					got := make(map[graph.VertexID]bool)
					cursor, more := graph.None, true
					for more {
						var page []graph.VertexID
						var err error
						if page, more, err = s.LineagePage(v, cursor, 1+rng.Intn(300)); err != nil {
							t.Errorf("%s: lineage page of %d after %d: %v", name, v, cursor, err)
							return
						}
						for _, w := range page {
							if w <= cursor || !want[w] {
								t.Errorf("%s: page of %d after %d reports %d (an ancestor: %v)", name, v, cursor, w, want[w])
								return
							}
							got[w], cursor = true, w
						}
					}
					for w := range want {
						if pos[w] < n && !got[w] {
							t.Errorf("%s: lineage of %d misses ancestor %d, published before the walk began", name, v, w)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
