package service

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/integrity"
	"wfreach/internal/skeleton"
	"wfreach/internal/wal"
)

// TestRestoreCutAndFlipTable is the restore contract as one table, on a
// crash image with an arena snapshot mid-stream and a WAL tail past it,
// one frame per 25-event batch: the log cut at every byte of its last
// two frames, and one byte flipped in a frame the snapshot covers, in a
// tail frame, in the arena's label extent and in its header. Every row
// names its class — boot, boot with the damaged tail truncated, or an
// integrity refusal — and, where the session boots, the frames and
// records recovered, Vertices(), the chain head the reopened log
// continues from and the size the log was truncated to. A cut inside a
// batch frame loses that whole batch and nothing before it, and a tail
// frame the labeler refuses past its first record is cut whole with the
// labeler left at the prefix, so the stream goes on from there. The
// WFSNAP02 row is the upgrade path: a labels.snap in a format earlier
// builds wrote is ignored and replayed over, and the session's next
// snapshot overwrites it in the current one.
func TestRestoreCutAndFlipTable(t *testing.T) {
	image := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 200, 33)
	events, later := events[:150], events[150:] // later: ingested after a restore
	reg := durableReg(t, image, DurableOptions{SnapshotEvery: 64})
	s, err := reg.Create("x", g, Config{Skeleton: skeleton.TCL, Mode: core.RModeDesignated})
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
		frames int // recovered, when the session boots
		arena  int // labels served from the arena, when it boots
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
	rows := []row{
		{name: "pristine", class: boot, frames: n, arena: labels},
		{name: "flip in a covered frame", wal: flipped(walRaw, ends[c/2]+9), class: refuse},
		{name: "flip in a tail frame", wal: flipped(walRaw, ends[c+1]+9), class: cutTail, frames: c + 1, arena: labels},
		{name: "flip in the arena label extent", snap: flipped(snapRaw, int64(len(snapRaw))-2), class: refuse},
		{name: "flip in the arena header", snap: flipped(snapRaw, 50), class: boot, frames: n},
		{name: "WFSNAP02 snapshot", snap: append([]byte("WFSNAP02"), snapRaw[8:]...), class: boot, frames: n, resnap: true},
		{name: "cut inside the last batch frame", wal: walRaw[:(ends[n-1]+ends[n])/2], class: cutTail, frames: n - 1, arena: labels, resume: true},
		{name: "tail frame refused after its first record", wal: slices.Concat(walRaw[:ends[n-1]], refusedTail), class: cutTail, frames: n - 1, resume: true},
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
		rows = append(rows, row{name: fmt.Sprintf("log cut at byte %d", cut), wal: walRaw[:cut], class: class, frames: whole, arena: labels})
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

		reg := durableReg(t, dir, DurableOptions{SnapshotEvery: -1})
		_, err := reg.Restore(dir)
		if tc.class == refuse {
			if err == nil || !strings.Contains(err.Error(), "integrity") {
				t.Errorf("%s: restore = %v, want an integrity refusal", tc.name, err)
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
