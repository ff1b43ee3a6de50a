//go:build !linux

package arena

import (
	"fmt"
	"os"
)

// openFile reads the whole file into memory — the portable fallback
// for platforms where the package does not use mmap. The Arena API is
// identical; only the zero-page-in restore property is lost.
func openFile(path string) (data []byte, mapped bool, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("arena: %w", err)
	}
	return data, false, nil
}

// unmapFile is a no-op for heap-backed arenas (never called: openFile
// reports mapped=false).
func unmapFile([]byte) error { return nil }

// evictFile is a no-op for heap-backed arenas (never called).
func evictFile([]byte) {}
