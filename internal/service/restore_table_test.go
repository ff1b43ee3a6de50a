package service

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/arena"
	"wfreach/internal/core"
	"wfreach/internal/integrity"
	"wfreach/internal/skeleton"
)

// TestRestoreCutAndFlipTable is the restore contract as one table, on a
// crash image with an arena snapshot mid-stream and a WAL tail past it:
// the log cut at every byte of its last two frames, and one byte flipped
// in a frame the snapshot covers, in a tail frame, in the arena's label
// extent and in its header. Every row names its class — boot, boot with
// the damaged tail truncated, or an integrity refusal — and, where the
// session boots, the records recovered, Vertices(), the chain head the
// reopened log continues from and the size the log was truncated to.
// The last row is the upgrade path: a labels.snap in a format earlier
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
	appendAll(t, s, events[:100], 25)
	s.snapWG.Wait() // let the mid-stream snapshot land
	s.ingestMu.Lock()
	s.snapEvery = -1
	s.ingestMu.Unlock()
	appendAll(t, s, events[100:], 25)
	// The crash: no Close. What is on disk now is the image.

	walRaw, err := os.ReadFile(filepath.Join(image, "x", walFile))
	if err != nil {
		t.Fatal(err)
	}
	snapRaw, err := os.ReadFile(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the byte offset k frames end at, heads[k] the chain
	// head over them.
	ends, heads := []int64{0}, []integrity.Head{{}}
	chainer := integrity.NewChainer()
	for off := int64(0); off < int64(len(walRaw)); {
		end := off + 8 + int64(binary.LittleEndian.Uint32(walRaw[off:]))
		heads = append(heads, chainer.Extend(heads[len(heads)-1], walRaw[off:end]))
		ends = append(ends, end)
		off = end
	}
	n := len(ends) - 1
	a, err := arena.Open(filepath.Join(image, "x", snapFile))
	if err != nil {
		t.Fatal(err)
	}
	covered, watermark, labels := int(a.Events()), a.WALBytes(), a.Count()
	a.Close()
	if n != len(events) || covered <= 0 || covered > n-3 || ends[covered] != watermark {
		t.Fatalf("image: %d frames for %d events, snapshot covers %d up to byte %d", n, len(events), covered, watermark)
	}

	const (
		boot    = "boot"
		cutTail = "boot with truncation"
		refuse  = "integrity refusal"
	)
	type row struct {
		name    string
		wal     []byte // the damaged log; nil: pristine
		snap    []byte // the damaged snapshot; nil: pristine
		class   string
		records int // recovered, when the session boots
		arena   int // labels served from the arena, when it boots
		// resnap: go on ingesting after the restore and require the next
		// snapshot to replace the file with one this build opens.
		resnap bool
	}
	flipped := func(b []byte, at int64) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0x01
		return out
	}
	rows := []row{
		{name: "pristine", class: boot, records: n, arena: labels},
		{name: "flip in a covered frame", wal: flipped(walRaw, ends[covered/2]+9), class: refuse},
		{name: "flip in a tail frame", wal: flipped(walRaw, ends[covered+1]+9), class: cutTail, records: covered + 1, arena: labels},
		{name: "flip in the arena label extent", snap: flipped(snapRaw, int64(len(snapRaw))-2), class: refuse},
		{name: "flip in the arena header", snap: flipped(snapRaw, 50), class: boot, records: n},
		{name: "WFSNAP02 snapshot", snap: append([]byte("WFSNAP02"), snapRaw[8:]...), class: boot, records: n, resnap: true},
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
		rows = append(rows, row{name: fmt.Sprintf("log cut at byte %d", cut), wal: walRaw[:cut], class: class, records: whole, arena: labels})
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
		seq, head, ok := s.ChainState()
		if !ok || seq != int64(tc.records) || head != heads[tc.records] {
			t.Errorf("%s: chain (%d, %s, %v), want (%d, %s)", tc.name, seq, head, ok, tc.records, heads[tc.records])
		}
		if got := s.Vertices(); got != int64(tc.records) {
			t.Errorf("%s: Vertices() = %d, want %d", tc.name, got, tc.records)
		}
		if got := s.Stats().ArenaVertices; got != int64(tc.arena) {
			t.Errorf("%s: %d labels served from the arena, want %d", tc.name, got, tc.arena)
		}
		fi, err := os.Stat(filepath.Join(sdir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if truncated := fi.Size() < int64(len(wal)); fi.Size() != ends[tc.records] || truncated != (tc.class == cutTail) {
			t.Errorf("%s: log is %d bytes after restore (was %d), want %d (%s)", tc.name, fi.Size(), len(wal), ends[tc.records], tc.class)
		}
		if tc.resnap {
			s.ingestMu.Lock()
			s.snapEvery = 8
			s.ingestMu.Unlock()
			appendAll(t, s, later, 25)
			s.snapWG.Wait()
			a, err := arena.Open(filepath.Join(sdir, snapFile))
			if err != nil {
				t.Errorf("%s: the next snapshot did not replace the file: %v", tc.name, err)
			} else {
				if a.Events() <= int64(tc.records) {
					t.Errorf("%s: the new snapshot covers %d events, restore recovered %d", tc.name, a.Events(), tc.records)
				}
				a.Close()
			}
		}
		reg.Close()
	}
}
