package service

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/integrity/audit"
	"wfreach/internal/wal"
)

// TestRestoreCutAndFlipTable is the contract of the two readers of a
// data directory, restore and the offline auditor, as one table, on a
// crash image with an arena snapshot mid-stream and a WAL tail past it,
// one frame per 25-event batch: the log cut at every byte of its last
// two frames and on a frame boundary below the watermark, one byte
// flipped in a frame the snapshot covers, in a tail frame followed by
// intact ones, in the arena's label extent and in its header, and the
// header's event count rewritten by one either way with its CRC fixed.
// Every row names restore's class — boot, boot with the damaged tail
// truncated, or an integrity refusal — and, where the session boots,
// the frames and records recovered, Vertices(), the chain head the
// reopened log continues from and the size the log was truncated to.
// Every row also names wfverify's status on the same directory, audited
// before the restore touches it, and, short of a violation, the records
// and chain head it walked. Both read the log with one walk and hold it
// to one anchor check, so a flip in a tail frame ends both walks there:
// restore truncates, the audit verifies the prefix before it. Both also
// name a snapshot whose header fails its checks one way: restore replays
// the log over it, the audit calls it unavailable, says why, and walks
// the log from genesis. A cut inside a batch frame loses that whole batch and nothing before it, and a tail
// frame the labeler refuses past its first record is cut whole with the
// labeler left at the prefix, so the stream goes on from there. The
// WFSNAP02 and WFSNAP04 to WFSNAP08 rows are the upgrade path: a
// labels.snap in a format earlier builds wrote is ignored and replayed
// over, and the session's next snapshot overwrites it in the current
// one. WFSNAP05 to WFSNAP08 have today's layout, so their rows are this
// image under the old magic: labels numbered or coded the old way must
// be replayed over even when every checksum holds.
func TestRestoreCutAndFlipTable(t *testing.T) {
	image := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 200, 33)
	events, later := events[:150], events[150:] // later: ingested after a restore
	reg := durableReg(t, image, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("x", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendFramed(t, s, events[:100], 25)
	s.snapWG.Wait() // let the mid-stream snapshot land
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendFramed(t, s, events[100:], 25)
	// The crash: no Close. What is on disk now is the image.

	walRaw, err := os.ReadFile(filepath.Join(image, "x", walFile))
	if err != nil {
		t.Fatal(err)
	}
	snapRaw, err := os.ReadFile(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the byte offset k frames end at, recs[k] the records
	// they carry and heads[k] the chain head over them.
	ends, recs, heads := []int64{0}, []int{0}, []integrity.Head{{}}
	chainer := integrity.NewChainer()
	var last []wal.Record // the records of the last frame
	for off := int64(0); off < int64(len(walRaw)); {
		end := off + 8 + int64(binary.LittleEndian.Uint32(walRaw[off:]))
		if last, err = wal.DecodePayload(nil, new([]graph.VertexID), walRaw[off+8:end]); err != nil {
			t.Fatal(err)
		}
		heads = append(heads, chainer.Extend(heads[len(heads)-1], walRaw[off:end]))
		ends, recs = append(ends, end), append(recs, recs[len(recs)-1]+len(last))
		off = end
	}
	n := len(ends) - 1
	a, err := arena.Open(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	covered, watermark, labels := int(a.Events()), a.WALBytes(), a.Count()
	a.Close()
	c := slices.Index(recs, covered) // the frames the snapshot covers
	if recs[n] != len(events) || n != 6 || c <= 0 || c > n-3 || ends[c] != watermark {
		t.Fatalf("image: %d frames for %d events, snapshot covers %d up to byte %d", n, len(events), covered, watermark)
	}
	// The last frame again, its second record a copy of its first: CRC
	// intact, and the labeler takes the first record before it refuses
	// the duplicate.
	forged := slices.Clone(last)
	forged[1] = forged[0]
	var refusedTail []byte
	open := -1
	for _, rec := range forged {
		if refusedTail, open, err = wal.AppendRecord(refusedTail, open, rec); err != nil {
			t.Fatal(err)
		}
	}

	const (
		boot    = "boot"
		cutTail = "boot with truncation"
		refuse  = "integrity refusal"
	)
	type row struct {
		name   string
		wal    []byte // the damaged log; nil: pristine
		snap   []byte // the damaged snapshot; nil: pristine
		class  string
		why    string // a substring of restore's refusal
		frames int    // recovered, when the session boots
		arena  int    // labels served from the arena, when it boots
		// verify is wfverify's status and verifyErr a substring of its
		// violation, or of why it set a snapshot aside. Short of a
		// violation it walks walked frames (0: frames) to walkedHead
		// (zero: the pristine log's head there).
		verify     audit.Status
		verifyErr  string
		walked     int
		walkedHead integrity.Head
		// resnap: go on ingesting after the restore and require the next
		// snapshot to replace the file with one this build opens.
		resnap bool
		// resume: go on ingesting the stream from what was recovered.
		resume bool
	}
	flipped := func(b []byte, at int64) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0x01
		return out
	}
	// withEvents rewrites the snapshot header's event count by delta and
	// fixes the CRC over the header and index: only the anchor check can
	// tell.
	withEvents := func(delta int64) []byte {
		out := slices.Clone(snapRaw)
		binary.LittleEndian.PutUint64(out[8:], uint64(int64(binary.LittleEndian.Uint64(out[8:]))+delta))
		const hdr = 116
		index := out[hdr : hdr+binary.LittleEndian.Uint64(out[104:])]
		binary.LittleEndian.PutUint32(out[hdr-4:], crc32.Update(crc32.ChecksumIEEE(out[8:hdr-4]), crc32.IEEETable, index))
		return out
	}
	counts := func(delta int) string {
		return fmt.Sprintf("the log holds %d records below the watermark, the snapshot covers %d", covered, covered+delta)
	}
	const verified, unavailable, violation = audit.StatusVerified, audit.StatusUnavailable, audit.StatusViolation
	rows := []row{
		{name: "pristine", class: boot, frames: n, arena: labels, verify: verified},
		{name: "flip in a covered frame", wal: flipped(walRaw, ends[c/2]+9), class: refuse,
			verify: violation, verifyErr: "end before the snapshot's watermark"},
		{name: "flip in a tail frame followed by intact frames", wal: flipped(walRaw, ends[c+1]+9), class: cutTail, frames: c + 1, arena: labels,
			verify: verified},
		{name: "flip in the arena label extent", snap: flipped(snapRaw, int64(len(snapRaw))-2), class: refuse,
			verify: violation, verifyErr: "Merkle"},
		{name: "flip in the arena header", snap: flipped(snapRaw, 50), class: boot, frames: n,
			verify: unavailable, verifyErr: "open snapshot"},
		{name: "events rewritten by +1", snap: withEvents(+1), class: refuse, why: counts(+1),
			verify: violation, verifyErr: counts(+1)},
		{name: "events rewritten by -1", snap: withEvents(-1), class: refuse, why: counts(-1),
			verify: violation, verifyErr: counts(-1)},
		{name: "WFSNAP02 snapshot", snap: append([]byte("WFSNAP02"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "WFSNAP04 snapshot", snap: append([]byte("WFSNAP04"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "WFSNAP05 snapshot", snap: append([]byte("WFSNAP05"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "WFSNAP06 snapshot", snap: append([]byte("WFSNAP06"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "WFSNAP07 snapshot", snap: append([]byte("WFSNAP07"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "WFSNAP08 snapshot", snap: append([]byte("WFSNAP08"), snapRaw[8:]...), class: boot, frames: n, resnap: true, verify: unavailable},
		{name: "cut inside the last batch frame", wal: walRaw[:(ends[n-1]+ends[n])/2], class: cutTail, frames: n - 1, arena: labels, resume: true,
			verify: verified},
		{name: "cut on a frame boundary below the watermark", wal: walRaw[:ends[c-1]], class: boot, frames: c - 1,
			verify: violation, verifyErr: "end before the snapshot's watermark"},
		{name: "tail frame refused after its first record", wal: slices.Concat(walRaw[:ends[n-1]], refusedTail), class: cutTail, frames: n - 1, resume: true,
			verify: verified, walked: n, walkedHead: integrity.NewChainer().Extend(heads[n-1], refusedTail)},
	}
	for cut := ends[n-2] + 1; cut < ends[n]; cut++ {
		whole := n - 2
		if cut >= ends[n-1] {
			whole = n - 1
		}
		class := cutTail
		if cut == ends[whole] {
			class = boot // cut on a frame boundary: nothing torn, just a shorter log
		}
		rows = append(rows, row{name: fmt.Sprintf("log cut at byte %d", cut), wal: walRaw[:cut], class: class, frames: whole, arena: labels, verify: verified})
	}

	for _, tc := range rows {
		dir := t.TempDir()
		sdir := filepath.Join(dir, "x")
		if err := os.Mkdir(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{metaFile, specFile} {
			raw, err := os.ReadFile(filepath.Join(image, "x", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sdir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wal, snap := tc.wal, tc.snap
		if wal == nil {
			wal = walRaw
		}
		if snap == nil {
			snap = snapRaw
		}
		if err := os.WriteFile(filepath.Join(sdir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, snapFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}

		rep := audit.VerifySession(sdir, "")
		walked, walkedHead := cmp.Or(tc.walked, tc.frames), cmp.Or(tc.walkedHead, heads[cmp.Or(tc.walked, tc.frames)])
		switch {
		case rep.Status != tc.verify:
			t.Errorf("%s: wfverify %s (%s), want %s", tc.name, rep.Status, rep.Err, tc.verify)
		case !strings.Contains(rep.Err, tc.verifyErr):
			t.Errorf("%s: wfverify's %s %q does not say %q", tc.name, rep.Status, rep.Err, tc.verifyErr)
		case tc.verify == violation:
		case rep.WALRecords != int64(recs[walked]) || rep.ChainHead != walkedHead.String():
			t.Errorf("%s: wfverify walked %d records to %s, want %d to %s", tc.name, rep.WALRecords, rep.ChainHead, recs[walked], walkedHead)
		case tc.verify == verified && rep.TailRecords != rep.WALRecords-int64(covered):
			t.Errorf("%s: wfverify counts %d tail records of %d past %d", tc.name, rep.TailRecords, rep.WALRecords, covered)
		}

		reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
		_, err := reg.Restore(dir)
		if tc.class == refuse {
			if err == nil || !strings.Contains(err.Error(), "integrity") || !strings.Contains(err.Error(), tc.why) {
				t.Errorf("%s: restore = %v, want an integrity refusal saying %q", tc.name, err, tc.why)
			}
			reg.Close()
			continue
		}
		if err != nil {
			t.Errorf("%s: restore = %v, want %s", tc.name, err, tc.class)
			continue
		}
		s, _ := reg.Get("x")
		records := recs[tc.frames]
		seq, head, ok := s.ChainState()
		if !ok || seq != int64(records) || head != heads[tc.frames] {
			t.Errorf("%s: chain (%d, %s, %v), want (%d, %s)", tc.name, seq, head, ok, records, heads[tc.frames])
		}
		if got := s.Vertices(); got != int64(records) {
			t.Errorf("%s: Vertices() = %d, want %d", tc.name, got, records)
		}
		if got := s.Stats().ArenaVertices; got != int64(tc.arena) {
			t.Errorf("%s: %d labels served from the arena, want %d", tc.name, got, tc.arena)
		}
		fi, err := os.Stat(filepath.Join(sdir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if truncated := fi.Size() < int64(len(wal)); fi.Size() != ends[tc.frames] || truncated != (tc.class == cutTail) {
			t.Errorf("%s: log is %d bytes after restore (was %d), want %d (%s)", tc.name, fi.Size(), len(wal), ends[tc.frames], tc.class)
		}
		if tc.resume {
			// The labeler holds exactly the recovered prefix: the stream
			// goes on from there, the lost batch included.
			if n, err := s.Append(slices.Concat(events[records:], later)); err != nil || n != len(events)-records+len(later) {
				t.Errorf("%s: resuming the stream at %d applied %d, %v", tc.name, records, n, err)
			}
		}
		if tc.resnap {
			s.ingestMu.Lock()
			s.snapEvery = 8
			s.ingestMu.Unlock()
			appendFramed(t, s, later, 25)
			s.snapWG.Wait()
			a, err := arena.Open(filepath.Join(sdir, snapFile))
			if err != nil {
				t.Errorf("%s: the next snapshot did not replace the file: %v", tc.name, err)
			} else {
				if a.Events() <= int64(records) {
					t.Errorf("%s: the new snapshot covers %d events, restore recovered %d", tc.name, a.Events(), records)
				}
				a.Close()
			}
		}
		reg.Close()
	}
}
