//go:build unix

package replica

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/store"
)

// TestCheckpointWrittenOutsideLock: Checkpoint captures the window under
// b.mu and writes and forces the checkpoint file outside it. A FIFO at the
// next checkpoint's temp path stands in for a slow disk: the read end opens
// once CompleteRotate has opened the file, and the checkpoint is larger
// than the pipe, so the writer stays blocked until the test drains it. While
// it is blocked the cluster mutex must be free.
func TestCheckpointWrittenOutsideLock(t *testing.T) {
	const items = 20000
	initial := make(model.State, items)
	for i := 0; i < items; i++ {
		initial.Set(model.Item(fmt.Sprintf("k%05d", i)), model.Value(i))
	}
	dir := t.TempDir()
	b, _, err := OpenBase(dir, initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseStore()
	fifo := store.CheckpointTempPath(dir, b.disk.Generation()+1)
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- b.Checkpoint() }()
	r, err := os.Open(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if b.mu.TryLock() {
		b.mu.Unlock()
	} else {
		t.Error("b.mu is held while the checkpoint file is written")
	}
	n, err := io.Copy(io.Discard, r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 64<<10 {
		t.Errorf("checkpoint is %d bytes, no larger than a pipe: the writer never blocked", n)
	}
	// Fsync on a FIFO fails, so the rotation itself fails and wedges the
	// log; only where the mutex was while writing matters here.
	<-done
}
