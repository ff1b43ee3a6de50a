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
//  2. the WAL's bytes below the snapshot's watermark chain to the
//     head the snapshot anchored (history the next restore will skip
//     replaying was not rewritten — the check a boot-time replay
//     cannot make for it);
//  3. the WAL's tail past the watermark is structurally intact, and
//     its records extend the chain to a final head the report carries
//     for comparison against an externally recorded anchor (the
//     /integrity endpoint's chain_head).
//
// Without an external anchor the tail past the last snapshot is
// CRC-protected only: a rewrite there that fixes the CRCs is
// undetectable from the directory alone, because the chain head that
// committed to those bytes lived in server memory. Record the
// endpoint's anchors somewhere the server cannot touch to close that
// window.
//
// Sessions with no snapshot the server would read — none yet, or one in
// an older format the server ignores and replays over — report
// StatusUnavailable, not a violation: such data is legal, it just
// anchors nothing.
package audit

import (
	"errors"
	"fmt"
	"io/fs"
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
	// read (none, or an older format); nothing to verify, nothing wrong.
	StatusUnavailable Status = "unavailable"
	// StatusViolation: the bytes on disk contradict a recorded anchor.
	StatusViolation Status = "violation"
)

// SessionReport is one session's audit result.
type SessionReport struct {
	Session string
	Status  Status
	// Err describes the violation (Status == StatusViolation) or the
	// IO/decode failure that prevented the audit.
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

// Violations counts the sessions whose audit found tampering (or
// could not run at all).
func (r *Report) Violations() int {
	n := 0
	for _, s := range r.Sessions {
		if s.Status == StatusViolation {
			n++
		}
	}
	return n
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
	walPath := filepath.Join(sdir, walFile)

	// Decode the snapshot's anchors, if it has any.
	var seed integrity.Head // chain seed for the scan past the watermark
	var fromWm int64        // byte offset the tail scan starts at
	a, err := arena.Open(filepath.Join(sdir, snapFile))
	switch {
	case errors.Is(err, fs.ErrNotExist) || errors.Is(err, arena.ErrVersion):
		// No snapshot the server would read: chain from genesis.
	case err != nil:
		return rep.fail("open snapshot: %v", err)
	default:
		defer a.Close()
		root, anchor := a.Integrity()
		rep.SnapshotWatermark = a.Events()
		rep.MerkleRoot = root.String()
		rep.AnchorHead = anchor.String()
		if err := a.VerifyMerkle(); err != nil {
			return rep.fail("%v", err)
		}
		// Re-chain the WAL below the watermark: every byte the next
		// restore would trust without replaying must still hash to the
		// head the snapshot committed to.
		head, n, err := wal.ChainTo(walPath, 0, a.WALBytes(), integrity.Head{})
		if err != nil {
			return rep.fail("chain below snapshot watermark: %v", err)
		}
		if head != anchor {
			return rep.fail("WAL chain head %s over records 1..%d does not match the snapshot's anchor %s: history below the watermark was rewritten", head, n, anchor)
		}
		rep.WALRecords = n
		seed, fromWm = head, a.WALBytes()
		rep.Status = StatusVerified
	}

	// Extend the chain over the tail (or, without a snapshot, the
	// whole log). A torn tail — trailing bytes that never formed a
	// complete frame — is a legal crash artifact, but damage to a
	// complete record is corruption either way.
	head, n, _, err := wal.ChainScan(walPath, fromWm, seed)
	if err != nil {
		return rep.fail("chain WAL tail: %v", err)
	}
	rep.TailRecords = n
	rep.WALRecords += n
	rep.ChainHead = head.String()
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
