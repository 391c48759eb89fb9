//go:build unix

package campaign

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"throughputlab/internal/platform"
)

// TestArkInterruptStopsCampaign interrupts `corpus ark` the way the
// signal handler does (cause platform.ErrInterrupted, which the CLI
// maps to exit 3) once the world is generated and the corpus is open:
// the corpus is a named pipe, and its reader cancels as soon as the
// writer opens it. The prefix campaign must stop between traceroutes,
// so no campaign line is printed, and the command fails with the
// interrupt.
func TestArkInterruptStopsCampaign(t *testing.T) {
	pipe := filepath.Join(t.TempDir(), "bed.pipe")
	if err := syscall.Mkfifo(pipe, 0o600); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	drained := make(chan error, 1)
	go func() {
		f, err := os.Open(pipe)
		cancel(platform.ErrInterrupted)
		if err == nil {
			_, err = io.Copy(io.Discard, f)
			f.Close()
		}
		drained <- err
	}()
	var err error
	stderr := captureStderr(t, func() { err = Ark(ctx, arkSpec(pipe), "bed-us") })
	if !errors.Is(err, platform.ErrInterrupted) {
		t.Errorf("interrupted ark returned %v, want an error wrapping ErrInterrupted", err)
	}
	if strings.Contains(stderr, "campaign from") {
		t.Errorf("the prefix campaign ran to the end after the interrupt:\n%s", stderr)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}
