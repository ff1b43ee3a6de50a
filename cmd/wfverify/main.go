// Command wfverify is the offline integrity auditor for a wfserve
// data directory: it re-verifies every session's tamper-evidence
// anchors — the Merkle root its latest arena snapshot recorded over
// the label extents, and the snapshot's anchor in the WAL: a frame
// ending at its watermark, the record count and the hash-chain head
// there — from the raw files alone, with restore's walk and anchor
// check; a log that ends before the watermark is a violation that says
// so. Run it against a stopped server's -data directory or a
// filesystem snapshot of one; it never writes.
//
// Usage:
//
//	wfverify -data /var/lib/wfserve
//	wfverify -data /var/lib/wfserve -session prod
//	wfverify -data /var/lib/wfserve -session prod -head 3f1a…c9
//
// Without -session every session under the directory is audited.
// -head supplies an externally recorded chain head (the chain_head of
// GET /v1/sessions/{name}/integrity, captured at any past moment the
// session was quiescent at its current sequence) and requires
// -session; it is the only check that covers WAL records written
// after the last snapshot, which are otherwise CRC-protected only.
//
// Sessions with no snapshot the server would read (none yet, one in an
// older format, or one whose header or index is damaged — restore
// ignores all three and replays the log over them) report "integrity:
// unavailable", with the reason for a damaged one — legal data, not a
// violation.
//
// Exit status: 0 when nothing contradicts an anchor, 1 when any
// session's audit found a violation, 2 on usage or IO errors.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wfreach/internal/integrity/audit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; the return
// value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data    = fs.String("data", "", "wfserve data directory to audit (required)")
		session = fs.String("session", "", "audit only this session")
		head    = fs.String("head", "", "externally recorded chain head (hex) the session's full WAL must land on; requires -session")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *data == "" || fs.NArg() > 0 || (*head != "" && *session == "") {
		fs.Usage()
		return 2
	}

	var reports []audit.SessionReport
	if *session != "" {
		sdir := filepath.Join(*data, *session)
		if _, err := os.Stat(sdir); err != nil {
			fmt.Fprintf(stderr, "wfverify: %v\n", err)
			return 2
		}
		reports = []audit.SessionReport{audit.VerifySession(sdir, *head)}
	} else {
		rep, err := audit.VerifyDir(*data)
		if err != nil {
			fmt.Fprintf(stderr, "wfverify: %v\n", err)
			return 2
		}
		reports = rep.Sessions
	}

	violations := 0
	for _, r := range reports {
		switch r.Status {
		case audit.StatusVerified:
			fmt.Fprintf(stdout, "%s: verified — %d WAL records, chain %s; snapshot at %d (merkle %s), tail of %d CRC-only\n",
				r.Session, r.WALRecords, r.ChainHead, r.SnapshotWatermark, r.MerkleRoot, r.TailRecords)
		case audit.StatusUnavailable:
			why := cmp.Or(r.Err, "no integrity-stamped snapshot")
			fmt.Fprintf(stdout, "%s: integrity: unavailable — %d WAL records, chain %s (%s)\n",
				r.Session, r.WALRecords, r.ChainHead, why)
		case audit.StatusViolation:
			violations++
			fmt.Fprintf(stdout, "%s: VIOLATION — %s\n", r.Session, r.Err)
		}
	}
	if len(reports) == 0 {
		fmt.Fprintf(stdout, "no sessions under %s\n", *data)
	}
	if violations > 0 {
		return 1
	}
	return 0
}
