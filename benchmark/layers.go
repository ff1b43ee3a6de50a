package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"wfreach/internal/api"
	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/label"
	"wfreach/internal/service"
	"wfreach/internal/skeleton"
	"wfreach/internal/store"
	"wfreach/internal/wal"
)

// The layer ledger. The program is not instrumented, so the benchmark
// cannot see inside Session.Append or a handler; what it can do is call
// each layer's public functions itself, on the same batches, in the
// order the ingest pipeline and the query path call them, with a span
// around each call. One ledger round replays the workload's streams
// through
//
//	api.AppendFrame → FrameReader.Next → ExecutionLabeler.Insert →
//	Codec.Encode → wal.AppendFrame → Log.AppendRaw → Chainer.Extend →
//	Store.AppendOwned → Store.Publish → Committer.Commit
//
// and, batch by batch, through the three service-level entry points
// that do all of that in one call (Session.AppendRecords or Append,
// the HTTP handler with an in-memory recorder, the client over loopback
// TCP); then answers reach batches layer by layer (GetRaw → Decode → Pi,
// ReachBytes) and through the same three entry points; then restarts a
// server on a crash image of the same streams. The difference between a
// service-level span and the sum of the layer spans replayed on the
// same batch is reported as unaccounted_pct: a large residual is a
// finding, not a target.

// The session files a durable registry writes (ARCHITECTURE.md,
// on-disk layout appendix).
const (
	walFile  = "events.wal"
	snapFile = "labels.snap"
)

// ledgerRequests is the number of reach requests per stream a ledger
// round answers.
const ledgerRequests = 32

type ledger struct {
	meter   // the ledger's own checks: spans go to meter.tr
	cal     *calibrator
	from    int  // first span index that belongs to the ledger
	inproc  bool // service.append is Session.Append (re-frames) rather than AppendRecords
	streams []*stream
	queries [][]query
	lineage []lineageQuery
	img     *crashImage
	dir     string

	rounds int
	speed  map[int32]float64 // machine speed index of each round
	units  map[string]int64  // work items under each span name, over all rounds

	// Counts and allocation rates, taken once (they do not vary).
	walBytes, walEvents        int64
	arenaBytes, arenaLabels    int64
	lineageStored, lineageHits int64
	insertAllocs               float64
	decodeAllocs, decodes      float64
	reachBytesAllocs, pairs    float64
}

// imager is implemented by a workload that already built a crash image
// the ledger can restart from.
type imager interface{ image() *crashImage }

func (w *restartRestore) image() *crashImage { return w.img }

func newLedger(tr *tracer, cal *calibrator, w workload, seed int64, inproc bool, dir string) (*ledger, error) {
	l := &ledger{
		meter: meter{tr: tr}, cal: cal, from: len(tr.spans), inproc: inproc, streams: w.streams(), dir: dir,
		speed: map[int32]float64{}, units: map[string]int64{},
	}
	for i, s := range l.streams {
		o, rng := newOracle(s), newRand(seed, 1000+i)
		l.queries = append(l.queries, o.queries(rng, len(s.events), ledgerRequests))
		l.lineage = append(l.lineage, o.lineage(len(s.events)-1-rng.Intn(len(s.events)/10), mixedLineageLimit))
	}
	if im, ok := w.(imager); ok {
		l.img = im.image()
		return l, nil
	}
	var err error
	l.img, err = buildCrashImage(filepath.Join(dir, "image"), filepath.Join(dir, "work"), l.streams, seed)
	return l, err
}

// span times fn as one span covering units work items.
func (l *ledger) span(name string, units int, fn func()) {
	id := l.tr.begin(name)
	fn()
	l.tr.end(id)
	l.units[name] += int64(units)
}

// per returns the median over ledger rounds of (time under name in the
// round, at reference speed) ÷ (work items under name in a round), in
// nanoseconds.
func (l *ledger) per(name string) float64 {
	if l.units[name] == 0 || l.rounds == 0 {
		return 0
	}
	var vs []float64
	for r, ns := range l.tr.perRound(name, l.from) {
		vs = append(vs, ns/l.speed[r])
	}
	return median(vs) / (float64(l.units[name]) / float64(l.rounds))
}

// mallocsDuring counts heap allocations fn makes.
func mallocsDuring(fn func()) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs - ms0.Mallocs)
}

// round runs one ledger round between two speed-index readings; r
// numbers it in the trace.
func (l *ledger) round(r int) error {
	var err error
	speed, cerr := l.cal.around(func() { err = l.replay(r) })
	if err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.speed[int32(r)] = speed
	l.rounds++
	return nil
}

func (l *ledger) replay(r int) (err error) {
	l.tr.setRound(r)
	dir := filepath.Join(l.dir, fmt.Sprintf("round%d", r))
	defer os.RemoveAll(dir)
	n, err := startNode(filepath.Join(dir, "node"))
	if err != nil {
		return err
	}
	defer func() {
		if serr := n.stop(); err == nil {
			err = serr
		}
	}()
	for i := range l.streams {
		if err := l.replayStream(dir, i, n); err != nil {
			return fmt.Errorf("ledger: stream %d: %w", i, err)
		}
	}
	runtime.GC()
	if err := l.replayRestart(filepath.Join(dir, "restart")); err != nil {
		return fmt.Errorf("ledger: restart: %w", err)
	}
	return nil
}

// replayStream replays one stream's ingest and queries, layer by layer
// and through the service-level entry points.
func (l *ledger) replayStream(dir string, si int, n *node) error {
	s := l.streams[si]
	first := l.rounds == 0 // counts and allocation rates are taken once
	codec := label.NewCodec(s.g)
	skel := skeleton.New(skeleton.TCL, s.g)
	lab := core.NewExecutionLabeler(s.g, skeleton.TCL, core.RModeDesignated)
	st := store.NewSharded(s.g, skeleton.TCL, 0)
	log, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shadow%d.wal", si)), 0, 0, false)
	if err != nil {
		return err
	}
	defer log.Close()
	// The shadow log's own chain is off so wal.commit does not hash:
	// integrity.chain hashes the same frames in its own span.
	log.DisableChain()
	committer := wal.NewCommitter()
	chainer := integrity.NewChainer()
	var head integrity.Head

	handler := service.NewHandler(n.reg)
	svcName, hdlName, rttName := fmt.Sprintf("svc%d", si), fmt.Sprintf("hdl%d", si), fmt.Sprintf("rtt%d", si)
	var svc *service.Session
	for _, name := range []string{svcName, hdlName, rttName} {
		sess, err := n.reg.Create(name, s.g, sessionConfig())
		if err != nil {
			return err
		}
		if name == svcName {
			svc = sess
		}
	}
	defer func() {
		for _, name := range []string{svcName, hdlName, rttName} {
			n.reg.Delete(name)
		}
	}()

	var (
		body, reframed []byte
		recs           = make([]wal.Record, 0, batchEvents)
		frames         = make([][]byte, 0, batchEvents)
		labels         = make([]label.Label, batchEvents)
		entries        = make([]store.Entry, 0, batchEvents)
		stepErr        error
	)
	fail := func(err error) {
		if err != nil && stepErr == nil {
			stepErr = err
		}
	}
	for lo := 0; lo < len(s.wire); lo += batchEvents {
		hi := min(lo+batchEvents, len(s.wire))
		batch, k := s.wire[lo:hi], hi-lo

		parent := l.tr.begin("ledger.ingest_batch")
		l.span("api.frame_encode", k, func() {
			body = body[:0]
			for _, ev := range batch {
				var err error
				body, err = api.AppendFrame(body, ev)
				fail(err)
			}
		})
		l.span("api.frame_decode", k, func() {
			recs, frames = recs[:0], frames[:0]
			fr := api.NewFrameReader(bytes.NewReader(body))
			for {
				rec, frame, err := fr.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					fail(err)
					break
				}
				recs = append(recs, rec)
				frames = append(frames, append([]byte(nil), frame...))
			}
		})
		if len(recs) != k {
			return fmt.Errorf("decoded %d of %d frames: %v", len(recs), k, stepErr)
		}
		l.span("core.insert", k, func() {
			for i := range recs {
				var err error
				labels[i], err = lab.Insert(recs[i].Ref)
				fail(err)
			}
		})
		l.span("label.encode", k, func() {
			entries = entries[:0]
			for i := range recs {
				entries = append(entries, store.Entry{V: recs[i].Ref.V, Enc: codec.Encode(labels[i])})
			}
		})
		l.span("wal.frame", k, func() {
			reframed = reframed[:0]
			for i := range recs {
				var err error
				reframed, err = wal.AppendFrame(reframed, recs[i])
				fail(err)
			}
		})
		l.span("wal.append", k, func() {
			for _, f := range frames {
				fail(log.AppendRaw(f))
			}
		})
		l.span("integrity.chain", k, func() {
			for _, f := range frames {
				head = chainer.Extend(head, f)
			}
		})
		l.span("store.stage", k, func() { fail(st.AppendOwned(entries)) })
		l.span("store.publish", 1, func() { st.Publish() })
		l.span("wal.commit", 1, func() { fail(committer.Commit(log, log.AppendSeq())) })
		l.tr.end(parent)
		l.check(bytes.Equal(reframed, body))

		l.span("service.append", 1, func() {
			var applied int
			var err error
			if l.inproc {
				applied, err = svc.Append(s.events[lo:hi])
			} else {
				applied, err = svc.AppendRecords(recs, frames)
			}
			fail(err)
			l.check(applied == k)
		})
		l.span("service.handler_ingest", 1, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+hdlName+"/events", bytes.NewReader(body))
			req.Header.Set("Content-Type", api.ContentTypeFrame)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			l.check(rec.Code == http.StatusOK)
		})
		l.span("client.ingest_rtt", 1, func() {
			resp, err := n.cl.IngestFrames(bg, rttName, batch)
			fail(err)
			l.check(resp.Applied == k)
		})
		if stepErr != nil {
			return stepErr
		}
	}
	// The chain replayed frame by frame must be the session's own head.
	in, err := svc.Integrity()
	l.check(err == nil && in.ChainHead == head.String())

	if first {
		l.walBytes += log.AppendBytes()
		l.walEvents += int64(len(s.wire))
		lab2 := core.NewExecutionLabeler(s.g, skeleton.TCL, core.RModeDesignated)
		l.insertAllocs += mallocsDuring(func() {
			for _, ev := range s.events {
				_, err := lab2.Insert(ev)
				fail(err)
			}
		})
	}

	// The same labels as an arena snapshot.
	snap := filepath.Join(dir, fmt.Sprintf("shadow%d.snap", si))
	aes := make([]arena.Entry, 0, st.Count())
	for _, e := range st.SnapshotEntries() {
		aes = append(aes, arena.Entry{V: e.V, Enc: e.Enc})
	}
	l.span("arena.write", 1, func() {
		_, err := arena.Write(snap, arena.Meta{Events: int64(len(s.wire)), WALBytes: log.AppendBytes(), ChainHead: head, HasChain: true}, aes)
		fail(err)
	})
	if fi, err := os.Stat(snap); err == nil && first {
		l.arenaBytes += fi.Size()
		l.arenaLabels += int64(len(aes))
	}

	// Queries: layer by layer against the shadow store, then through the
	// session, the handler and the client.
	var (
		bv, bw = make([][]byte, pairsPerRequest), make([][]byte, pairsPerRequest)
		lv, lw = make([]label.Label, pairsPerRequest), make([]label.Label, pairsPerRequest)
		got    = make([]api.ReachAnswer, pairsPerRequest)
	)
	for qi := range l.queries[si] {
		q := &l.queries[si][qi]
		parent := l.tr.begin("ledger.reach_batch")
		l.span("store.getraw", 2*len(q.pairs), func() {
			for i, p := range q.pairs {
				bv[i], _ = st.GetRaw(graph.VertexID(p.From))
				bw[i], _ = st.GetRaw(graph.VertexID(p.To))
			}
		})
		l.span("label.decode", 2*len(q.pairs), func() {
			for i := range q.pairs {
				var err error
				lv[i], err = codec.Decode(bv[i])
				fail(err)
				lw[i], err = codec.Decode(bw[i])
				fail(err)
			}
		})
		if stepErr != nil {
			return stepErr
		}
		l.span("core.pi", len(q.pairs), func() {
			for i, p := range q.pairs {
				got[i] = api.ReachAnswer{From: p.From, To: p.To, Reachable: core.Pi(skel, lv[i], lw[i])}
			}
		})
		l.ops(pairsPerRequest, q.check(got))
		l.span("store.reachbytes", len(q.pairs), func() {
			for i := range q.pairs {
				ok, err := st.ReachBytes(bv[i], bw[i])
				fail(err)
				got[i].Reachable = ok
			}
		})
		l.tr.end(parent)
		l.ops(pairsPerRequest, q.check(got))

		var answers []api.ReachAnswer
		l.span("service.reachbatch", len(q.pairs), func() { answers = svc.ReachBatch(q.pairs) })
		l.ops(pairsPerRequest, q.check(answers))
		var reqRaw []byte
		l.span("api.reach_json", len(q.pairs), func() {
			// Both directions, both sides: what a batch pays in JSON.
			var req api.BatchReachRequest
			var resp api.BatchReachResponse
			var err error
			reqRaw, err = json.Marshal(api.BatchReachRequest{Pairs: q.pairs})
			fail(err)
			fail(json.Unmarshal(reqRaw, &req))
			respRaw, err := json.Marshal(api.BatchReachResponse{Results: answers})
			fail(err)
			fail(json.Unmarshal(respRaw, &resp))
		})
		l.span("service.handler_reach", 1, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+svcName+"/reach", bytes.NewReader(reqRaw))
			req.Header.Set("Content-Type", api.ContentTypeJSON)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			l.check(rec.Code == http.StatusOK)
		})
		l.span("client.reach_rtt", 1, func() {
			answers, err := n.cl.ReachBatch(bg, svcName, q.pairs)
			fail(err)
			l.ops(pairsPerRequest, q.check(answers))
		})
	}
	if first {
		qs := l.queries[si]
		l.decodeAllocs += mallocsDuring(func() {
			for i := range qs {
				for _, p := range qs[i].pairs {
					b, _ := st.GetRaw(graph.VertexID(p.From))
					_, err := codec.Decode(b)
					fail(err)
					l.decodes++
				}
			}
		})
		l.reachBytesAllocs += mallocsDuring(func() {
			for i := range qs {
				for _, p := range qs[i].pairs {
					b1, _ := st.GetRaw(graph.VertexID(p.From))
					b2, _ := st.GetRaw(graph.VertexID(p.To))
					_, err := st.ReachBytes(b1, b2)
					fail(err)
					l.pairs++
				}
			}
		})
	}

	lq := &l.lineage[si]
	var anc []graph.VertexID
	l.span("store.lineage", 1, func() {
		var err error
		anc, err = st.Lineage(lq.of)
		fail(err)
	})
	l.check(len(anc) == lq.ancestors)
	if first {
		l.lineageStored += int64(st.Count())
		l.lineageHits += int64(len(anc))
	}
	l.span("service.lineagepage", 1, func() {
		page, more, err := svc.LineagePage(lq.of, graph.None, lq.limit)
		fail(err)
		l.check(lq.check(page, more))
	})
	return stepErr
}

// replayRestart restarts a server on a copy of the crash image, after
// opening, verifying and scanning its files layer by layer.
func (l *ledger) replayRestart(dir string) error {
	if err := copyTree(l.img.dir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var stepErr error
	for _, cs := range l.img.sessions {
		var a *arena.Arena
		l.span("arena.open", 1, func() { a, stepErr = arena.Open(filepath.Join(dir, cs.name, snapFile)) })
		if stepErr != nil {
			return stepErr
		}
		l.span("integrity.merkle", 1, func() { stepErr = a.VerifyMerkle() })
		l.check(a.Count() == snapshotCut(cs.held))
		if cerr := a.Close(); stepErr == nil {
			stepErr = cerr
		}
		if stepErr != nil {
			return stepErr
		}
		scanned := 0
		l.span("wal.scan", cs.held, func() {
			scanned, _, stepErr = wal.Scan(filepath.Join(dir, cs.name, walFile), func(int, wal.Record) error { return nil })
		})
		l.check(scanned == cs.held)
		if stepErr != nil {
			return stepErr
		}
	}
	attempted, failed, err := restartCycle(l.tr, dir, l.img, nil)
	for _, name := range []string{"service.restore", "service.first_query", "service.first_write", "service.close_checkpoint"} {
		l.units[name]++
	}
	l.attempted += attempted
	l.failed += failed
	return err
}

// values derives the ledger's per-layer metrics.
func (l *ledger) values(httpKind string) map[string]float64 {
	sum := func(names ...string) (ns float64) {
		for _, n := range names {
			// Per batch: per-unit time × units per batch.
			ns += l.per(n) * float64(l.units[n]) / float64(l.units["service.append"])
		}
		return ns
	}
	ingestLayers := []string{"core.insert", "label.encode", "wal.append", "integrity.chain", "store.stage", "store.publish", "wal.commit"}
	if l.inproc {
		ingestLayers = append(ingestLayers, "wal.frame")
	}
	appendNS := l.per("service.append")
	reachNS := l.per("service.reachbatch")
	reachLayers := l.per("store.getraw")*2 + l.per("store.reachbytes")
	handler, rtt := "service.handler_"+httpKind, "client."+httpKind+"_rtt"
	return map[string]float64{
		"core.insert_ns_per_event":          l.per("core.insert"),
		"core.insert_allocs_per_event":      l.insertAllocs / float64(l.walEvents),
		"core.pi_ns_per_pair":               l.per("core.pi"),
		"label.encode_ns_per_event":         l.per("label.encode"),
		"label.decode_ns_per_label":         l.per("label.decode"),
		"label.decode_allocs_per_label":     l.decodeAllocs / l.decodes,
		"store.stage_ns_per_event":          l.per("store.stage"),
		"store.publish_us_per_batch":        l.per("store.publish") / 1e3,
		"store.getraw_ns_per_lookup":        l.per("store.getraw"),
		"store.reachbytes_ns_per_pair":      l.per("store.reachbytes"),
		"store.reachbytes_allocs_per_pair":  l.reachBytesAllocs / l.pairs,
		"store.lineage_ms_per_scan":         l.per("store.lineage") / 1e6,
		"store.lineage_decodes_per_result":  float64(l.lineageStored) / float64(l.lineageHits),
		"wal.frame_ns_per_event":            l.per("wal.frame"),
		"wal.append_ns_per_event":           l.per("wal.append"),
		"wal.bytes_per_event":               float64(l.walBytes) / float64(l.walEvents),
		"wal.commit_us_per_batch":           l.per("wal.commit") / 1e3,
		"wal.scan_ns_per_event":             l.per("wal.scan"),
		"integrity.chain_ns_per_event":      l.per("integrity.chain"),
		"integrity.merkle_ms_per_verify":    l.per("integrity.merkle") / 1e6,
		"arena.open_ms":                     l.per("arena.open") / 1e6,
		"arena.write_ms":                    l.per("arena.write") / 1e6,
		"arena.bytes_per_label":             float64(l.arenaBytes) / float64(l.arenaLabels),
		"api.frame_encode_ns_per_event":     l.per("api.frame_encode"),
		"api.frame_decode_ns_per_event":     l.per("api.frame_decode"),
		"api.reach_json_ns_per_pair":        l.per("api.reach_json"),
		"service.append_us_per_batch":       appendNS / 1e3,
		"service.reachbatch_ns_per_pair":    reachNS,
		"service.lineagepage_ms":            l.per("service.lineagepage") / 1e6,
		"service.handler_us_per_batch":      l.per(handler) / 1e3,
		"service.restore_ms":                l.per("service.restore") / 1e6,
		"service.first_query_ms":            l.per("service.first_query") / 1e6,
		"service.first_write_ms":            l.per("service.first_write") / 1e6,
		"service.close_checkpoint_ms":       l.per("service.close_checkpoint") / 1e6,
		"service.unaccounted_pct_ingest":    100 * (appendNS - sum(ingestLayers...)) / appendNS,
		"service.unaccounted_pct_reach":     100 * (reachNS - reachLayers) / reachNS,
		"client.http_overhead_us_per_batch": (l.per(rtt) - l.per(handler)) / 1e3,
	}
}
