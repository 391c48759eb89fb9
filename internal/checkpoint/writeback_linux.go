//go:build linux && !arm

package checkpoint

import (
	"os"
	"syscall"
)

// startWriteback asks the kernel to begin writing f's dirty pages in
// [off, off+n) to disk without waiting for them (sync_file_range with
// SYNC_FILE_RANGE_WRITE). It is only a head start for the fsync at
// Close, which still runs and still decides durability, so errors are
// ignored.
func startWriteback(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		const syncFileRangeWrite = 0x2 // SYNC_FILE_RANGE_WRITE
		syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
