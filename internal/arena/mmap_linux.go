//go:build linux

package arena

import (
	"fmt"
	"os"
	"syscall"
)

// openFile maps the file at path read-only. MAP_SHARED + PROT_READ:
// the pages are backed by the file (and shared with any other process
// mapping the same snapshot), never written, and paged in lazily — an
// arena of gigabytes opens in microseconds and only the bytes queries
// actually touch ever reach memory.
func openFile(path string) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("arena: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("arena: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		// mmap rejects zero-length mappings; an empty file is just a
		// corrupt arena, reported by parse on the empty slice.
		return []byte{}, false, nil
	}
	if size != int64(int(size)) {
		return nil, false, fmt.Errorf("arena: %s: %d bytes exceeds the address space", path, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, fmt.Errorf("arena: mmap %s: %w", path, err)
	}
	return data, true, nil
}

// unmapFile releases a mapping produced by openFile.
func unmapFile(data []byte) error {
	if err := syscall.Munmap(data); err != nil {
		return fmt.Errorf("arena: munmap: %w", err)
	}
	return nil
}

// evictFile drops a mapping's pages from the resident set. The file
// backs them, so nothing is lost; it is advice, and a kernel that
// declines it has only left the pages where they were.
func evictFile(data []byte) { _ = syscall.Madvise(data, syscall.MADV_DONTNEED) }
