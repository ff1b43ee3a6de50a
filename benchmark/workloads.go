package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"wfreach/client"
	"wfreach/internal/graph"
	"wfreach/internal/service"
)

// sizes are the input sizes of one run. An op is an event or a pair, so
// every round of every workload is on the order of 10^5 ops.
type sizes struct {
	bioaid        int // events of the ingest_http / reach_http session
	agentTraces   int // sessions per mixed_inproc round
	agentEvents   int // events per agent trace
	restart       int // events in the restart_restore crash image
	reachRequests int // reach requests per reach_http round
}

var (
	fullSizes = sizes{bioaid: 100_000, agentTraces: 8, agentEvents: 6_250, restart: 200_000, reachRequests: 400}
	// quickSizes keep the whole suite under ten seconds for the tests.
	quickSizes = sizes{bioaid: 2_048, agentTraces: 2, agentEvents: 1_024, restart: 2_048, reachRequests: 16}
)

const (
	reachLineageLimit = 1000 // page size of reach_http's one lineage call per round
	mixedLineageLimit = 256  // page size of mixed_inproc's lineage calls
	mixedReachPerStep = 4    // reach requests after each appended batch
	mixedLineageEvery = 16   // every n-th batch also asks the newest vertex's lineage
)

// meter collects what a round's calls produce besides elapsed time: op
// and failure counts, one latency sample per batch, spans when traced.
type meter struct {
	tr        *tracer
	attempted int64
	failed    int64
	batchMS   []float64 // one sample per batch; reset by the runner
}

func (m *meter) ops(attempted, failed int) {
	m.attempted += int64(attempted)
	m.failed += int64(failed)
}

// check counts one op that either held or failed.
func (m *meter) check(ok bool) {
	m.attempted++
	if !ok {
		m.failed++
	}
}

func (m *meter) batch(since time.Time) {
	m.batchMS = append(m.batchMS, float64(time.Since(since))/1e6)
}

// facts are the run's seed-determined quantities: they do not depend on
// how fast anything ran.
type facts struct {
	labeled      int64 // vertices the sessions report at the end of a round
	labelBytes   int64 // Σ encoded label bytes, as the sessions report it
	labelBitsMax int
	stored       int64 // events the data directory holds
	storedBytes  int64 // bytes on disk for them
	// From labeling the streams in set-up (see stream):
	labelLens    []int // encoded length per event
	labelEntries int64
	shadowBytes  int64 // Σ labelLens; must equal labelBytes
}

// workload is one of the four benchmark workloads. A round is prepare
// (un-timed; it also clears away what the previous round left) and run
// (timed, fixed op count).
type workload interface {
	setup(dir string) error
	prepare(round int) error
	run(m *meter) error
	// verify answers the verification set through the workload's own
	// call path against the state the last round left.
	verify(m *meter) error
	facts() (facts, error)
	// streams are the inputs the layer ledger replays.
	streams() []*stream
	// flipOracle corrupts one expected answer (tests only).
	flipOracle()
	close() error
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "ingest_http":
		return &ingestHTTP{seed: seed, sz: sz}, nil
	case "reach_http":
		return &reachHTTP{seed: seed, sz: sz}, nil
	case "mixed_inproc":
		return &mixedInproc{seed: seed, sz: sz}, nil
	case "restart_restore":
		return &restartRestore{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func newRand(seed int64, k int) *rand.Rand { return rand.New(rand.NewSource(subSeed(seed, k))) }

func streamFacts(ss ...*stream) (f facts) {
	for _, s := range ss {
		f.labelLens = append(f.labelLens, s.labelBytes...)
		for _, n := range s.labelBytes {
			f.shadowBytes += int64(n)
		}
		f.labelEntries += int64(s.labelEntries)
		f.labelBitsMax = max(f.labelBitsMax, s.labelBitsMax)
	}
	return f
}

// addSession folds a live session's own counts into f.
func (f *facts) addSession(st service.Stats) {
	f.labeled += st.Vertices
	f.stored += st.Vertices
	f.labelBytes += int64(st.LabelBits / 8)
}

var bg = context.Background()

// ---------------------------------------------------------------------
// ingest_http: the front-door write path. One closed-loop writer sends a
// BioAID execution as 256-event binary-frame batches over one loopback
// connection to a durable server; a round is one fresh session fully
// ingested. op = event.

type ingestHTTP struct {
	seed   int64
	sz     sizes
	s      *stream
	verifs []query
	n      *node
	dir    string
	live   string // session of the last round, kept for verify and facts
}

func (w *ingestHTTP) setup(dir string) (err error) {
	w.dir = dir
	if w.s, err = bioaidStream(subSeed(w.seed, 0), w.sz.bioaid); err != nil {
		return err
	}
	w.verifs = newOracle(w.s).queries(newRand(w.seed, 1), len(w.s.events), verifyRequests)
	w.n, err = startNode(filepath.Join(dir, "data"))
	return err
}

func (w *ingestHTTP) drop() error {
	if w.live == "" {
		return nil
	}
	name := w.live
	w.live = ""
	return w.n.cl.DeleteSession(bg, name)
}

func (w *ingestHTTP) prepare(round int) error {
	if err := w.drop(); err != nil {
		return err
	}
	name := fmt.Sprintf("r%d", round)
	if _, err := w.n.cl.CreateSession(bg, client.CreateSessionRequest{Name: name, Builtin: w.s.builtin}); err != nil {
		return err
	}
	w.live = name
	return nil
}

func (w *ingestHTTP) run(m *meter) error {
	for lo := 0; lo < len(w.s.wire); lo += batchEvents {
		batch := w.s.wire[lo:min(lo+batchEvents, len(w.s.wire))]
		t0 := time.Now()
		id := m.tr.begin("client.IngestFrames")
		resp, err := w.n.cl.IngestFrames(bg, w.live, batch)
		m.tr.end(id)
		m.batch(t0)
		m.ops(len(batch), len(batch)-resp.Applied)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestHTTP) verify(m *meter) error {
	for i := range w.verifs {
		got, err := w.n.cl.ReachBatch(bg, w.live, w.verifs[i].pairs)
		if err != nil {
			return err
		}
		m.ops(pairsPerRequest, w.verifs[i].check(got))
	}
	return nil
}

func (w *ingestHTTP) facts() (facts, error) {
	f := streamFacts(w.s)
	sess, ok := w.n.reg.Get(w.live)
	if !ok {
		return f, fmt.Errorf("no live session to take facts from")
	}
	f.addSession(sess.Stats())
	var err error
	f.storedBytes, err = treeBytes(filepath.Join(w.dir, "data"))
	return f, err
}

func (w *ingestHTTP) streams() []*stream { return []*stream{w.s} }
func (w *ingestHTTP) flipOracle()        { w.verifs[0].want[0] = !w.verifs[0].want[0] }

func (w *ingestHTTP) close() error {
	if w.n == nil {
		return nil
	}
	err := w.drop()
	if serr := w.n.stop(); err == nil {
		err = serr
	}
	return err
}

// ---------------------------------------------------------------------
// reach_http: the read path as users see it. One preloaded BioAID
// session; a round is reachRequests batch-reach requests of 64 seeded
// pairs plus one paginated lineage call. op = pair.

type reachHTTP struct {
	seed    int64
	sz      sizes
	s       *stream
	reqs    []query
	lineage lineageQuery
	verifs  []query
	n       *node
	dir     string
}

const reachSession = "preloaded"

func (w *reachHTTP) setup(dir string) (err error) {
	w.dir = dir
	if w.s, err = bioaidStream(subSeed(w.seed, 0), w.sz.bioaid); err != nil {
		return err
	}
	o, n := newOracle(w.s), len(w.s.events)
	w.reqs = o.queries(newRand(w.seed, 1), n, w.sz.reachRequests)
	w.verifs = o.queries(newRand(w.seed, 2), n, verifyRequests)
	// A vertex from the last tenth of the execution: its closure is
	// large, so the page is full and the scan returns early nowhere.
	w.lineage = o.lineage(n-1-newRand(w.seed, 3).Intn(n/10), reachLineageLimit)
	if w.n, err = startNode(filepath.Join(dir, "data")); err != nil {
		return err
	}
	sess, err := w.n.reg.Create(reachSession, w.s.g, sessionConfig())
	if err != nil {
		return err
	}
	return ingest(sess, w.s, 0, n)
}

func (w *reachHTTP) prepare(int) error { return nil }

func (w *reachHTTP) ask(m *meter, qs []query, timed bool) error {
	for i := range qs {
		t0 := time.Now()
		id := m.tr.begin("client.ReachBatch")
		got, err := w.n.cl.ReachBatch(bg, reachSession, qs[i].pairs)
		m.tr.end(id)
		if timed {
			m.batch(t0)
		}
		if err != nil {
			return err
		}
		m.ops(pairsPerRequest, qs[i].check(got))
	}
	return nil
}

func (w *reachHTTP) run(m *meter) error {
	if err := w.ask(m, w.reqs, true); err != nil {
		return err
	}
	id := m.tr.begin("client.LineagePage")
	page, err := w.n.cl.LineagePage(bg, reachSession, int32(w.lineage.of), "", w.lineage.limit)
	m.tr.end(id)
	if err != nil {
		return err
	}
	m.check(w.lineage.checkWire(page))
	return nil
}

func (w *reachHTTP) verify(m *meter) error { return w.ask(m, w.verifs, false) }

func (w *reachHTTP) facts() (facts, error) {
	f := streamFacts(w.s)
	sess, _ := w.n.reg.Get(reachSession)
	f.addSession(sess.Stats())
	var err error
	f.storedBytes, err = treeBytes(filepath.Join(w.dir, "data"))
	return f, err
}

func (w *reachHTTP) streams() []*stream { return []*stream{w.s} }
func (w *reachHTTP) flipOracle()        { w.reqs[0].want[0] = !w.reqs[0].want[0] }

func (w *reachHTTP) close() error {
	if w.n == nil {
		return nil
	}
	return w.n.stop()
}

// ---------------------------------------------------------------------
// mixed_inproc: no HTTP, no api — core, label and store do the work.
// One goroutine on durable in-process sessions alternates
// Append(256 events) → 4×ReachBatch(64) over the vertices published so
// far → every 16th batch one LineagePage of the newest vertex. The
// input is the agent grammar (deep recursion, long labels); a round
// runs agentTraces fresh sessions one after the other, because one
// agent trace's shape hangs on a single early draw (its turn count) and
// averaging several brings the cross-seed spread of label length from
// 1.9% down to 0.4%. op = event ingested or pair answered.

type mixedInproc struct {
	seed   int64
	sz     sizes
	traces []*mixedTrace
	reg    *service.Registry
	dir    string
	live   []*service.Session
}

type mixedTrace struct {
	s       *stream
	steps   []mixedStep
	verifs  []query
	session string
}

// mixedStep is what follows one appended batch.
type mixedStep struct {
	lo, hi  int
	reach   []query
	lineage *lineageQuery
}

func (w *mixedInproc) setup(dir string) (err error) {
	w.dir = dir
	for k := 0; k < w.sz.agentTraces; k++ {
		s, err := agentStream(subSeed(w.seed, 10+k), w.sz.agentEvents)
		if err != nil {
			return err
		}
		t := &mixedTrace{s: s, session: fmt.Sprintf("t%d", k)}
		o, rng := newOracle(s), newRand(w.seed, 100+k)
		for lo := 0; lo < len(s.events); lo += batchEvents {
			st := mixedStep{lo: lo, hi: min(lo+batchEvents, len(s.events))}
			st.reach = o.queries(rng, st.hi, mixedReachPerStep)
			if (lo/batchEvents)%mixedLineageEvery == 0 {
				lq := o.lineage(st.hi-1, mixedLineageLimit)
				st.lineage = &lq
			}
			t.steps = append(t.steps, st)
		}
		t.verifs = o.queries(rng, len(s.events), verifyRequests/w.sz.agentTraces)
		w.traces = append(w.traces, t)
	}
	w.reg, err = durableRegistry(filepath.Join(dir, "data"), noSnapshots)
	return err
}

func (w *mixedInproc) drop() {
	for _, t := range w.traces {
		w.reg.Delete(t.session)
	}
	w.live = nil
}

func (w *mixedInproc) prepare(int) error {
	w.drop()
	for _, t := range w.traces {
		sess, err := w.reg.Create(t.session, t.s.g, sessionConfig())
		if err != nil {
			return err
		}
		w.live = append(w.live, sess)
	}
	return nil
}

func (w *mixedInproc) run(m *meter) error {
	for k, t := range w.traces {
		sess := w.live[k]
		for i := range t.steps {
			st := &t.steps[i]
			t0 := time.Now()
			id := m.tr.begin("service.Append")
			n, err := sess.Append(t.s.events[st.lo:st.hi])
			m.tr.end(id)
			m.ops(st.hi-st.lo, st.hi-st.lo-n)
			if err != nil {
				return err
			}
			for j := range st.reach {
				id = m.tr.begin("service.ReachBatch")
				got := sess.ReachBatch(st.reach[j].pairs)
				m.tr.end(id)
				m.ops(pairsPerRequest, st.reach[j].check(got))
			}
			if st.lineage != nil {
				id = m.tr.begin("service.LineagePage")
				page, more, err := sess.LineagePage(st.lineage.of, graph.None, st.lineage.limit)
				m.tr.end(id)
				m.check(err == nil && st.lineage.check(page, more))
			}
			m.batch(t0)
		}
	}
	return nil
}

func (w *mixedInproc) verify(m *meter) error {
	for k, t := range w.traces {
		for i := range t.verifs {
			m.ops(pairsPerRequest, t.verifs[i].check(w.live[k].ReachBatch(t.verifs[i].pairs)))
		}
	}
	return nil
}

func (w *mixedInproc) facts() (facts, error) {
	f := streamFacts(w.streams()...)
	for _, sess := range w.live {
		f.addSession(sess.Stats())
	}
	var err error
	f.storedBytes, err = treeBytes(filepath.Join(w.dir, "data"))
	return f, err
}

func (w *mixedInproc) streams() []*stream {
	out := make([]*stream, len(w.traces))
	for i, t := range w.traces {
		out[i] = t.s
	}
	return out
}

func (w *mixedInproc) flipOracle() {
	q := w.traces[0].steps[0].reach[0]
	q.want[0] = !q.want[0]
}

func (w *mixedInproc) close() error {
	if w.reg == nil {
		return nil
	}
	w.drop()
	return w.reg.Close()
}

// ---------------------------------------------------------------------
// restart_restore: the recovery path. Set-up builds a BioAID crash
// image (snapshot over the first 75%, WAL tail the last 25%); a round
// copies it to a fresh directory (un-timed) and times restore → first
// verified query → first write. op = event recovered.

type restartRestore struct {
	seed     int64
	sz       sizes
	s        *stream
	img      *crashImage
	verifs   []query
	dir      string
	round    string        // this round's copy of the image
	restored service.Stats // of the session verify restored
}

func (w *restartRestore) setup(dir string) (err error) {
	w.dir = dir
	if w.s, err = bioaidStream(subSeed(w.seed, 0), w.sz.restart); err != nil {
		return err
	}
	w.img, err = buildCrashImage(filepath.Join(dir, "image"), filepath.Join(dir, "work"), []*stream{w.s}, w.seed)
	if err != nil {
		return err
	}
	held := w.img.sessions[0].held
	w.verifs = newOracle(w.s).queries(newRand(w.seed, 1), held, verifyRequests)
	return nil
}

func (w *restartRestore) prepare(round int) error {
	if err := w.close(); err != nil {
		return err
	}
	w.round = filepath.Join(w.dir, fmt.Sprintf("round%d", round))
	return copyTree(w.img.dir, w.round)
}

// cycle runs one restart on this round's copy. Closing the registry
// (the checkpoint write) is part of the cycle but not of the timed
// restart: m.batch is stamped before it.
func (w *restartRestore) cycle(m *meter, between func(*service.Registry) error) error {
	t0 := time.Now()
	var stamped bool
	attempted, failed, err := restartCycle(m.tr, w.round, w.img, func(reg *service.Registry) error {
		m.batch(t0)
		stamped = true
		if between != nil {
			return between(reg)
		}
		return nil
	})
	if !stamped {
		m.batch(t0)
	}
	m.attempted += attempted
	m.failed += failed
	return err
}

func (w *restartRestore) run(m *meter) error { return w.cycle(m, nil) }

func (w *restartRestore) verify(m *meter) error {
	if err := w.prepare(-1); err != nil {
		return err
	}
	vm := &meter{}
	err := w.cycle(vm, func(reg *service.Registry) error {
		sess, _ := reg.Get(w.img.sessions[0].name)
		w.restored = sess.Stats()
		for i := range w.verifs {
			vm.ops(pairsPerRequest, w.verifs[i].check(sess.ReachBatch(w.verifs[i].pairs)))
		}
		return nil
	})
	m.attempted += vm.attempted
	m.failed += vm.failed
	return err
}

func (w *restartRestore) facts() (facts, error) {
	// Labels are counted on the session verify restored, which by then
	// also holds the first write; bytes on disk are the image's.
	f := streamFacts(w.s)
	f.addSession(w.restored)
	f.stored = w.img.events
	var err error
	f.storedBytes, err = treeBytes(w.img.dir)
	return f, err
}

func (w *restartRestore) streams() []*stream { return []*stream{w.s} }

func (w *restartRestore) flipOracle() {
	q := w.img.sessions[0].firstRead
	q.want[0] = !q.want[0]
}

// close removes the last round's copy of the image.
func (w *restartRestore) close() error {
	if w.round == "" {
		return nil
	}
	return os.RemoveAll(w.round)
}
