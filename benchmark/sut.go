package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"wfreach/client"
	"wfreach/internal/service"
)

// The one flush policy every workload runs under: durable registry,
// WAL flushed (not fsynced) before each batch is acked, hash chain on,
// default shard count. Periodic snapshots are off during timed ingest —
// they are started by a timer-free but asynchronous goroutine and would
// break exact counts; noSnapshots disables them, closeSnapshot keeps
// them off until Registry.Close writes its checkpoint.
const (
	noSnapshots   = -1
	closeSnapshot = 1 << 30
)

func durableRegistry(dir string, snapshotEvery int) (*service.Registry, error) {
	return service.NewDurableRegistry(service.DurableOptions{Dir: dir, SnapshotEvery: snapshotEvery, Fsync: false})
}

// sessionConfig is the default labeling configuration (TCL skeleton,
// designated-R recursion compression) — what POST /v1/sessions selects
// when the request names neither.
func sessionConfig() service.Config {
	cfg, _ := service.ParseConfig("", "")
	return cfg
}

// node is a durable registry served over loopback TCP, with a client
// holding one connection to it.
type node struct {
	reg  *service.Registry
	srv  *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan error
}

func startNode(dir string) (*node, error) {
	reg, err := durableRegistry(dir, noSnapshots)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		reg:  reg,
		srv:  &http.Server{Handler: service.NewHandler(reg)},
		tr:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	n.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: n.tr, Timeout: time.Minute}),
		client.WithRetry(0, 0))
	return n, nil
}

// stop shuts the server down, waits for its goroutine, and closes the
// registry's logs.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.tr.CloseIdleConnections()
	if cerr := n.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// ingest appends events [lo,hi) of s to sess in batchEvents batches.
func ingest(sess *service.Session, s *stream, lo, hi int) error {
	for ; lo < hi; lo += batchEvents {
		end := min(lo+batchEvents, hi)
		if n, err := sess.Append(s.events[lo:end]); err != nil {
			return fmt.Errorf("append events %d..%d: applied %d: %w", lo, end, n, err)
		}
	}
	return nil
}

// crashImage is a data directory as a killed server leaves it, plus
// what the sessions in it held at the moment of the kill.
type crashImage struct {
	dir      string
	sessions []crashedSession
	events   int64 // events the image holds, over all sessions
}

type crashedSession struct {
	name      string
	s         *stream
	held      int // events of s in the image; the next batchEvents are the first write
	vertices  int64
	chainHead string
	firstRead query
}

// buildCrashImage writes into dir the state of a server that was
// killed: for each stream, an arena snapshot covering the first three
// quarters of its events and a WAL whose tail holds the rest, the last
// batchEvents events held back as the first write after recovery. The
// snapshot is a real shutdown checkpoint (Registry.Close), the tail is
// ingested by a second registry restored from it, and that registry is
// abandoned without Close once dir has been copied from work — its
// file handles are released afterwards, before any round runs.
func buildCrashImage(dir, work string, streams []*stream, seed int64) (*crashImage, error) {
	img := &crashImage{dir: dir}
	reg, err := durableRegistry(work, closeSnapshot)
	if err != nil {
		return nil, err
	}
	for i, s := range streams {
		cs := crashedSession{name: fmt.Sprintf("s%d", i), s: s, held: len(s.events) - batchEvents}
		if cs.held < batchEvents {
			return nil, fmt.Errorf("stream %d: %d events are too few for a crash image", i, len(s.events))
		}
		sess, err := reg.Create(cs.name, s.g, sessionConfig())
		if err != nil {
			return nil, err
		}
		if err := ingest(sess, s, 0, snapshotCut(cs.held)); err != nil {
			return nil, err
		}
		img.sessions = append(img.sessions, cs)
		img.events += int64(cs.held)
	}
	if err := reg.Close(); err != nil {
		return nil, err
	}
	if reg, err = durableRegistry(work, closeSnapshot); err != nil {
		return nil, err
	}
	if _, err := reg.Restore(work); err != nil {
		return nil, err
	}
	for i := range img.sessions {
		cs := &img.sessions[i]
		sess, ok := reg.Get(cs.name)
		if !ok {
			return nil, fmt.Errorf("session %s did not restore", cs.name)
		}
		if err := ingest(sess, cs.s, snapshotCut(cs.held), cs.held); err != nil {
			return nil, err
		}
		in, err := sess.Integrity()
		if err != nil {
			return nil, err
		}
		cs.vertices, cs.chainHead = sess.Vertices(), in.ChainHead
		cs.firstRead = newOracle(cs.s).queries(newRand(seed, i), cs.held, 1)[0]
	}
	// The kill: copy what is on disk now, with the registry still open.
	if err := copyTree(work, dir); err != nil {
		return nil, err
	}
	err = reg.Close()
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	return img, err
}

// snapshotCut is the event count the image's snapshot covers: three
// quarters of held, on a batch boundary.
func snapshotCut(held int) int { return held * 3 / 4 / batchEvents * batchEvents }

// restartCycle restarts a server on a copy of the image in dir: open a
// registry and Restore (arena map, Merkle verify, chain replay, tail
// replay), answer the first query, accept the first write (which on a
// session restored with an empty tail forces the deferred labeler
// replay), then Close (checkpoint write). It returns how many checks
// failed: a session whose restored vertex count or chain head differs
// from the pre-crash value, a wrong first answer, a short first write.
// between, when non-nil, runs against the restored registry before it
// closes.
func restartCycle(tr *tracer, dir string, img *crashImage, between func(*service.Registry) error) (attempted, failed int64, err error) {
	reg, err := durableRegistry(dir, closeSnapshot)
	if err != nil {
		return 0, 0, err
	}
	id := tr.begin("service.restore")
	_, err = reg.Restore(dir)
	tr.end(id)
	if err != nil {
		reg.Close()
		return 0, 0, err
	}
	sessions := make([]*service.Session, len(img.sessions))
	for i, cs := range img.sessions {
		sess, ok := reg.Get(cs.name)
		attempted += int64(cs.held)
		if !ok {
			reg.Close()
			return attempted, attempted, fmt.Errorf("session %s did not restore", cs.name)
		}
		sessions[i] = sess
		in, ierr := sess.Integrity()
		if ierr != nil || in.ChainHead != cs.chainHead || sess.Vertices() != cs.vertices {
			failed += int64(cs.held)
		}
	}
	id = tr.begin("service.first_query")
	for i, cs := range img.sessions {
		attempted += pairsPerRequest
		failed += int64(cs.firstRead.check(sessions[i].ReachBatch(cs.firstRead.pairs)))
	}
	tr.end(id)
	id = tr.begin("service.first_write")
	for i, cs := range img.sessions {
		attempted += batchEvents
		n, aerr := sessions[i].Append(cs.s.events[cs.held : cs.held+batchEvents])
		if aerr != nil {
			err = aerr
		}
		failed += int64(batchEvents - n)
	}
	tr.end(id)
	if err == nil && between != nil {
		err = between(reg)
	}
	id = tr.begin("service.close_checkpoint")
	cerr := reg.Close()
	tr.end(id)
	if err == nil {
		err = cerr
	}
	return attempted, failed, err
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err = io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// treeBytes sums the sizes of the regular files under dir: what a data
// directory costs on disk (WAL, snapshot, session metadata).
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}
