// Package audit is the offline integrity auditor behind cmd/wfverify:
// it walks a durable data directory — with the server stopped or from
// a filesystem snapshot — and re-verifies every session's
// tamper-evidence anchors from the raw files alone, with no registry,
// no replay and no labeling.
//
// For a session with a label snapshot the audit proves three things:
//
//  1. the snapshot's label extents hash to its recorded Merkle root
//     (the labels served zero-copy were not rewritten);
//  2. the WAL below the snapshot's watermark matches the snapshot's
//     anchor: a frame ends there, and the frames below it carry the
//     records the snapshot covers and chain to the head it recorded
//     (history the next restore will skip replaying was not rewritten);
//  3. the records past the watermark extend the chain to a final head
//     the report carries for comparison against an externally recorded
//     anchor (the /integrity endpoint's chain_head).
//
// It reads the log with restore's walk and anchor check (wal.Walk,
// wal.Anchor.Check); a log that ends before the watermark is a
// violation that says so. A damaged frame past the watermark ends both
// readers' walks, intact frames after it or not: restore truncates the
// log there, and the audit verifies the records before it.
//
// Without an external anchor the tail past the last snapshot is
// CRC-protected only: a rewrite there that fixes the CRCs is
// undetectable from the directory alone, because the chain head that
// committed to those bytes lived in server memory. Record the
// endpoint's anchors somewhere the server cannot touch to close that
// window.
//
// Sessions with no snapshot the server would read — none yet, one in an
// older format, one whose header or index fails its own checks, or one
// holding another number of labels than the records its anchor covers —
// report StatusUnavailable, not a violation: restore ignores such a
// file and replays the log over it, so the data is legal, it just
// anchors nothing. Why a snapshot was set aside is in Err. Label bytes
// that contradict a readable snapshot's Merkle root stay a violation.
package audit

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"wfreach/internal/arena"
	"wfreach/internal/integrity"
	"wfreach/internal/wal"
)

// The durable layout audited, mirrored from internal/service (the
// audit must not import the service, which would drag the whole
// labeling engine into a read-only tool).
const (
	metaFile = "session.json"
	walFile  = "events.wal"
	snapFile = "labels.snap"
)

// Status classifies one session's audit outcome.
type Status string

const (
	// StatusVerified: the snapshot's Merkle root and watermark chain
	// anchor both check out against the bytes on disk.
	StatusVerified Status = "verified"
	// StatusUnavailable: the session has no snapshot the server would
	// read (see the package doc); nothing to verify, nothing wrong.
	StatusUnavailable Status = "unavailable"
	// StatusViolation: the bytes on disk contradict a recorded anchor.
	StatusViolation Status = "violation"
)

// SessionReport is one session's audit result.
type SessionReport struct {
	Session string
	Status  Status
	// Err describes the violation (Status == StatusViolation) or the
	// IO/decode failure that prevented the audit, or why a snapshot
	// the server would not read was set aside (StatusUnavailable).
	Err string

	// SnapshotWatermark is the event count the snapshot covers;
	// AnchorHead the chain head it recorded at that point and
	// MerkleRoot its label-extent root (all zero/empty without a
	// snapshot).
	SnapshotWatermark int64
	AnchorHead        string
	MerkleRoot        string

	// WALRecords counts the intact records in the WAL and ChainHead is
	// the hash chain over all of them — the value to compare against
	// an externally recorded /integrity chain_head. TailRecords of
	// them lie past the snapshot watermark and are CRC-protected only.
	WALRecords  int64
	ChainHead   string
	TailRecords int64
}

// Report is a whole data directory's audit.
type Report struct {
	Dir      string
	Sessions []SessionReport
}

// VerifyDir audits every session under the data directory (any
// subdirectory holding a session.json, exactly the set a restore
// would pick up).
func VerifyDir(dir string) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &Report{Dir: dir}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sdir := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sdir, metaFile)); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		rep.Sessions = append(rep.Sessions, VerifySession(sdir, ""))
	}
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].Session < rep.Sessions[j].Session })
	return rep, nil
}

// VerifySession audits one session directory. expectHead, when
// non-empty, is an externally recorded chain head (hex, from the
// /integrity endpoint) that the full WAL chain must land on — the
// only check that covers the tail past the last snapshot.
func VerifySession(sdir, expectHead string) SessionReport {
	rep := SessionReport{Session: filepath.Base(sdir), Status: StatusUnavailable}

	// Decode the snapshot's anchors, if it has any.
	var anchor *wal.Anchor
	a, err := arena.Open(filepath.Join(sdir, snapFile))
	switch {
	case errors.Is(err, fs.ErrNotExist) || errors.Is(err, arena.ErrVersion):
		// No snapshot the server would read: the chain from genesis is all.
	case errors.Is(err, arena.ErrCorrupt):
		// Restore replays over it too: unavailable, and why.
		rep.Err = fmt.Sprintf("open snapshot: %v", err)
	case err != nil:
		return rep.fail("open snapshot: %v", err)
	default:
		defer a.Close()
		root, head := a.Integrity()
		rep.SnapshotWatermark = a.Events()
		rep.MerkleRoot = root.String()
		rep.AnchorHead = head.String()
		if err := a.VerifyMerkle(); err != nil {
			return rep.fail("%v", err)
		}
		anchor = &wal.Anchor{Records: a.Events(), Watermark: a.WALBytes(), Head: head}
	}

	// Chain the whole log, holding it to the anchor at the watermark.
	w := wal.OpenWalk(filepath.Join(sdir, walFile), 0)
	defer w.Close()
	chain := integrity.NewChainer()
	fold := func(until int64) {
		for w.End() < until && w.Next() {
			chain.Add(w.Payload())
		}
	}
	var covered int64
	if anchor != nil {
		fold(anchor.Watermark)
		if err := cmp.Or(w.Err(), anchor.Check(w.Seq(), w.End(), chain.Head())); err != nil {
			return rep.fail("chain below snapshot watermark: %v", err)
		}
		if n := int64(a.Count()); n != anchor.Records {
			// Restore sets it aside and replays the log over it.
			rep.Err = fmt.Sprintf("snapshot holds %d labels for the %d records it covers", n, anchor.Records)
		} else {
			covered, rep.Status = w.Seq(), StatusVerified
		}
	}
	fold(math.MaxInt64)
	if err := w.Err(); err != nil {
		return rep.fail("read WAL: %v", err)
	}
	rep.WALRecords, rep.TailRecords = w.Seq(), w.Seq()-covered
	rep.ChainHead = chain.Head().String()
	if expectHead != "" && rep.ChainHead != expectHead {
		return rep.fail("WAL chain head %s does not match the recorded anchor %s", rep.ChainHead, expectHead)
	}
	return rep
}

func (r SessionReport) fail(format string, args ...any) SessionReport {
	r.Status = StatusViolation
	r.Err = fmt.Sprintf(format, args...)
	return r
}
