//go:build !linux || arm

package checkpoint

import "os"

// startWriteback is a no-op where package syscall has no
// SyncFileRange (non-Linux systems, and 32-bit ARM Linux): the
// barrier's fsync then flushes the whole unsynced range itself.
func startWriteback(f *os.File, off, n int64) {}
