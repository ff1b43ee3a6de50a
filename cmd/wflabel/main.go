// Command wflabel labels a workflow run on the fly and answers
// reachability (provenance) queries from the labels.
//
// Usage:
//
//	wflabel -spec spec.xml -run run.xml -stats
//	wflabel -spec spec.xml -run run.xml -query 3,141 -query 0,20
//	wflabel -spec spec.xml -size 2048 -seed 5 -stats -verify
//	wflabel -addr http://127.0.0.1:8080 -size 2048 -query 3,141 -query 0,20
//
// Without -run a random run of -size vertices is generated. With
// -exec the execution-based labeler is used (events replayed in
// topological order) instead of the derivation-based one.
//
// With -addr the labeling happens on a running wfserve instead of in
// process: wflabel creates a session (named by -session) with the
// specification, streams the run's execution over the binary frame
// format through the Go client SDK, answers every -query in a single
// batch-reach roundtrip, and deletes the session unless -keep is
// given. -stats then reports the server's session statistics, and
// -verify samples server answers against local BFS ground truth. A
// server labels every session with TCL skeleton labels, so -bfs, which
// picks the library's BFS skeleton, is a usage error there (exit 2).
//
// With -addr and -integrity, wflabel instead audits an existing
// session: it prints the session's tamper-evidence anchors (the WAL
// hash-chain head and, once a stamped snapshot exists, its Merkle
// root) in exactly the form `wfverify -head` consumes, and exits —
// nothing is created, ingested, or deleted:
//
//	wflabel -addr http://127.0.0.1:8080 -session prod -integrity
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"wfreach"
	"wfreach/client"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ";") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	specPath := flag.String("spec", "", "specification XML (empty = built-in running example)")
	runPath := flag.String("run", "", "run XML (empty = generate with -size/-seed)")
	size := flag.Int("size", 1024, "generated run size")
	seed := flag.Int64("seed", 1, "generation seed")
	useExec := flag.Bool("exec", false, "use the execution-based labeler")
	useBFS := flag.Bool("bfs", false, "use the BFS skeleton instead of TCL (in process only)")
	stats := flag.Bool("stats", false, "print label statistics")
	verify := flag.Bool("verify", false, "verify labels against BFS ground truth (all pairs locally, a sample with -addr)")
	addr := flag.String("addr", "", "wfserve base URL: label on the server through the client SDK instead of in process")
	session := flag.String("session", "wflabel", "with -addr: session name to create")
	keep := flag.Bool("keep", false, "with -addr: leave the session on the server when done")
	integ := flag.Bool("integrity", false, "with -addr: print the named session's tamper-evidence anchors and exit (no run, no ingest)")
	var queries queryList
	flag.Var(&queries, "query", "reachability query \"v,w\" (repeatable)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "wflabel: %v\n", err)
		os.Exit(1)
	}
	if *useBFS && *addr != "" {
		fmt.Fprintln(os.Stderr, "wflabel: -bfs labels in process; a server labels every session with TCL, so it does not go with -addr")
		os.Exit(2)
	}

	// Integrity audit mode: query an existing session's anchors and
	// exit — no run generation, no ingest, nothing created or deleted.
	if *integ {
		if *addr == "" {
			fail(errors.New("-integrity requires -addr"))
		}
		if err := printIntegrity(*addr, *session, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	s := wfreach.RunningExample()
	if *specPath != "" {
		var err error
		if s, err = wfreach.LoadSpec(*specPath); err != nil {
			fail(err)
		}
	}
	g, err := wfreach.Compile(s)
	if err != nil {
		fail(err)
	}
	var r *wfreach.Run
	if *runPath != "" {
		if r, err = wfreach.LoadRun(*runPath, g); err != nil {
			fail(err)
		}
	} else {
		if r, err = wfreach.Generate(g, wfreach.GenOptions{TargetSize: *size, Seed: *seed}); err != nil {
			fail(err)
		}
	}

	fmt.Printf("grammar: class=%s, |G(S)|=%d graphs, run: %d vertices, %d edges\n",
		g.Class(), len(s.Graphs()), r.Size(), r.Graph.NumEdges())

	if *addr != "" {
		if err := runRemote(remoteConfig{
			addr: *addr, session: *session, keep: *keep,
			stats: *stats, verify: *verify, queries: queries,
		}, s, r, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	kind := wfreach.TCL
	if *useBFS {
		kind = wfreach.BFS
	}

	var reach func(v, w wfreach.VertexID) bool
	var labelOf func(v wfreach.VertexID) (wfreach.Label, bool)
	if *useExec {
		events, err := r.Execution(nil)
		if err != nil {
			fail(err)
		}
		e, err := wfreach.LabelExecution(g, events, kind, wfreach.RModeDesignated)
		if err != nil {
			fail(err)
		}
		reach, labelOf = e.Reach, e.Label
	} else {
		d, err := wfreach.LabelRun(r, kind, wfreach.RModeDesignated)
		if err != nil {
			fail(err)
		}
		reach, labelOf = d.Reach, d.Label
	}

	if *stats {
		codec := wfreach.NewLabelCodec(g)
		maxBits, total, count := 0, 0, 0
		for _, v := range r.Graph.LiveVertices() {
			l, ok := labelOf(v)
			if !ok {
				fail(fmt.Errorf("vertex %d unlabeled", v))
			}
			b := codec.BitLen(l)
			if b > maxBits {
				maxBits = b
			}
			total += b
			count++
		}
		fmt.Printf("labels: max %d bits, avg %.1f bits over %d vertices\n",
			maxBits, float64(total)/float64(count), count)
	}

	if *verify {
		live := r.Graph.LiveVertices()
		checked := 0
		for _, v := range live {
			for _, w := range live {
				if reach(v, w) != r.Graph.Reaches(v, w) {
					fail(fmt.Errorf("label answer diverges from ground truth at (%d,%d)", v, w))
				}
				checked++
			}
		}
		fmt.Printf("verified %d pairs against ground truth\n", checked)
	}

	for _, q := range queries {
		vid, wid, err := parseQuery(q)
		if err != nil {
			fail(err)
		}
		if _, ok := labelOf(vid); !ok {
			fail(fmt.Errorf("query %q: vertex %d is not a labeled run vertex", q, vid))
		}
		if _, ok := labelOf(wid); !ok {
			fail(fmt.Errorf("query %q: vertex %d is not a labeled run vertex", q, wid))
		}
		fmt.Printf("reach(%d→%d) = %v   (%s → %s)\n", vid, wid, reach(vid, wid), r.NameOf(vid), r.NameOf(wid))
	}
}

type remoteConfig struct {
	addr    string
	session string
	keep    bool
	stats   bool
	verify  bool
	queries queryList
}

// printIntegrity fetches and prints an existing session's
// tamper-evidence anchors in exactly the form wfverify -head consumes.
// A server whose log for the session is closed answers a typed
// not_durable error, which is reported as unavailability, not failure.
func printIntegrity(addr, session string, out io.Writer) error {
	st, err := client.New(addr).Integrity(context.Background(), session)
	var ae *client.Error
	switch {
	case errors.As(err, &ae) && ae.Code == client.CodeNotDurable:
		fmt.Fprintf(out, "integrity: unavailable (%s)\n", ae.Message)
		return nil
	case err != nil:
		return fmt.Errorf("integrity: %w", err)
	}
	fmt.Fprintf(out, "integrity: chain %s at seq %d", st.ChainHead, st.WALSeq)
	if st.MerkleRoot != "" {
		fmt.Fprintf(out, ", snapshot merkle %s at %d", st.MerkleRoot, st.SnapshotWatermark)
	}
	fmt.Fprintf(out, "\n  anchor for: wfverify -data <dir> -session %s -head %s\n", session, st.ChainHead)
	return nil
}

// remoteVerifySample is how many random pairs -verify checks against
// the server in remote mode (the local mode checks all n², which
// would be n² roundtrips here).
const remoteVerifySample = 2000

// runRemote labels the run on a wfserve: create a session over the
// specification, stream the execution through the SDK's binary-frame
// uploader, then answer every query in one batch-reach roundtrip.
func runRemote(cfg remoteConfig, s *wfreach.Spec, r *wfreach.Run, out io.Writer) error {
	ctx := context.Background()
	c := client.New(cfg.addr)

	events, err := r.Execution(nil)
	if err != nil {
		return err
	}
	xml, err := wfreach.SpecXML(s)
	if err != nil {
		return err
	}
	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: cfg.session, SpecXML: xml}); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	if !cfg.keep {
		defer c.DeleteSession(context.Background(), cfg.session)
	}

	stream := c.Stream(ctx, cfg.session, client.StreamOptions{})
	for _, ev := range events {
		if err := stream.Send(client.FromRun(ev)); err != nil {
			return fmt.Errorf("stream events: %w", err)
		}
	}
	if err := stream.Close(); err != nil {
		return fmt.Errorf("stream events: %w", err)
	}
	fmt.Fprintf(out, "streamed %d events to %s (session %q)\n", stream.Applied(), cfg.addr, cfg.session)

	if cfg.stats {
		st, err := c.Session(ctx, cfg.session)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "server session: %d vertices in %d batches, %d label bits (%d skeleton bits)\n",
			st.Vertices, st.Batches, st.LabelBits, st.SkeletonBits)
	}

	if cfg.verify {
		live := r.Graph.LiveVertices()
		rng := rand.New(rand.NewSource(1))
		pairs := make([]client.ReachPair, 0, remoteVerifySample)
		for i := 0; i < remoteVerifySample; i++ {
			pairs = append(pairs, client.ReachPair{
				From: int32(live[rng.Intn(len(live))]),
				To:   int32(live[rng.Intn(len(live))]),
			})
		}
		answers, err := c.ReachBatch(ctx, cfg.session, pairs)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		for _, ans := range answers {
			if ans.Code != "" {
				return fmt.Errorf("verify: reach(%d,%d): %s: %s", ans.From, ans.To, ans.Code, ans.Error)
			}
			if want := r.Graph.Reaches(wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)); ans.Reachable != want {
				return fmt.Errorf("server answer diverges from ground truth at (%d,%d)", ans.From, ans.To)
			}
		}
		fmt.Fprintf(out, "verified %d sampled pairs against ground truth\n", len(answers))
	}

	if len(cfg.queries) == 0 {
		return nil
	}
	pairs := make([]client.ReachPair, len(cfg.queries))
	for i, q := range cfg.queries {
		vid, wid, err := parseQuery(q)
		if err != nil {
			return err
		}
		pairs[i] = client.ReachPair{From: int32(vid), To: int32(wid)}
	}
	// Every -query answered in one roundtrip.
	answers, err := c.ReachBatch(ctx, cfg.session, pairs)
	if err != nil {
		return err
	}
	for i, ans := range answers {
		if ans.Code != "" {
			return fmt.Errorf("query %q: %s: %s", cfg.queries[i], ans.Code, ans.Error)
		}
		v, w := wfreach.VertexID(ans.From), wfreach.VertexID(ans.To)
		fmt.Fprintf(out, "reach(%d→%d) = %v   (%s → %s)\n", ans.From, ans.To, ans.Reachable, r.NameOf(v), r.NameOf(w))
	}
	return nil
}

// parseQuery parses a -query value "v,w" into two vertex ids. Exactly
// two comma-separated non-negative integers within the VertexID range
// are accepted; anything else is a descriptive error.
func parseQuery(q string) (v, w wfreach.VertexID, err error) {
	parts := strings.Split(q, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("query %q is not \"v,w\" (two comma-separated vertex ids)", q)
	}
	ids := [2]wfreach.VertexID{}
	for i, p := range parts {
		n, perr := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if perr != nil {
			return 0, 0, fmt.Errorf("query %q: %q is not a vertex id", q, strings.TrimSpace(p))
		}
		if n < 0 {
			return 0, 0, fmt.Errorf("query %q: vertex id %d is negative", q, n)
		}
		ids[i] = wfreach.VertexID(n)
	}
	return ids[0], ids[1], nil
}
