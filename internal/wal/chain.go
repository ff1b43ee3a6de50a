package wal

import (
	"fmt"

	"wfreach/internal/integrity"
)

// ChainScan hashes the log file at path into the frame hash chain,
// starting from seed at byte offset (a frame boundary), and stops at
// the first torn or corrupt frame like Scan does. It returns the head
// over the valid prefix, the number of frames folded in, and the
// absolute end of the valid prefix. A missing file scans as empty.
// Unlike Scan it never decodes payloads.
func ChainScan(path string, offset int64, seed integrity.Head) (head integrity.Head, n int64, validSize int64, err error) {
	return chainFile(path, offset, -1, -1, seed)
}

// ChainPrefix hashes the first n frames of the log file at path from
// genesis: the chain head the log had at sequence n. A log with fewer
// than n intact frames is ErrCorrupt.
func ChainPrefix(path string, n int64) (integrity.Head, error) {
	head, got, _, err := chainFile(path, 0, -1, n, integrity.Head{})
	if err == nil && got != n {
		err = fmt.Errorf("%w: log holds %d intact frames, not %d", ErrCorrupt, got, n)
	}
	if err != nil {
		return integrity.Head{}, err
	}
	return head, nil
}

// ChainTo is ChainScan with a hard stop: every byte of [offset, to)
// must be intact frames and a frame boundary must land exactly on to,
// or ErrCorrupt is returned. It is how a verifier answers "what is the
// chain head at this snapshot's watermark" — damage anywhere below the
// watermark is real corruption, not a torn tail, and must surface.
func ChainTo(path string, offset, to int64, seed integrity.Head) (head integrity.Head, n int64, err error) {
	head, n, valid, err := chainFile(path, offset, to, -1, seed)
	if err != nil {
		return integrity.Head{}, 0, err
	}
	if valid != to {
		return integrity.Head{}, 0, fmt.Errorf("%w: valid frames end at byte %d, not the required boundary %d", ErrCorrupt, valid, to)
	}
	return head, n, nil
}

// chainFile folds the frames from byte offset on into seed, until the
// valid prefix reaches stop or limit frames are folded (negative: until
// the log ends).
func chainFile(path string, offset, stop, limit int64, seed integrity.Head) (head integrity.Head, n int64, validSize int64, err error) {
	fr, f, err := OpenFrames(path, offset)
	if err != nil {
		return integrity.Head{}, 0, offset, err
	}
	defer f.Close()
	chainer := integrity.NewChainer()
	head = seed
	for (stop < 0 || offset+fr.Offset() < stop) && (limit < 0 || n < limit) {
		frame, err := fr.Next()
		if err != nil {
			return head, n, offset + fr.Offset(), tailDamage(err)
		}
		head = chainer.Extend(head, frame)
		n++
	}
	return head, n, offset + fr.Offset(), nil
}
