package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tiermerge/internal/model"
)

func TestMemoryVersionResolution(t *testing.T) {
	m := NewMemory()
	m.Set(1, 0, map[model.Item]model.Value{"x": 10, "y": 20})
	m.Set(1, 3, map[model.Item]model.Value{"y": 23}) // out of order: Set sorts by coordinate
	m.Set(1, 1, map[model.Item]model.Value{"x": 11})
	m.Set(2, 1, map[model.Item]model.Value{"x": 30})

	for _, tc := range []struct {
		window, pos int
		want        model.State
	}{
		{1, 0, model.State{"x": 10, "y": 20}},
		{1, 2, model.State{"x": 11, "y": 20}}, // the write at pos 3 is past the watermark
		{1, 3, model.State{"x": 11, "y": 23}},
		{2, 0, model.State{"x": 11, "y": 23}}, // a window's origin is the last window's end
		{2, 1, model.State{"x": 30, "y": 23}},
	} {
		s := m.SnapshotAt(tc.window, tc.pos)
		if st := s.State(); !st.Equal(tc.want) {
			t.Errorf("State() at (%d,%d) = %v, want %v", tc.window, tc.pos, st, tc.want)
		}
		s.Release()
	}
}

func TestDiskRotateAndRecoverSegments(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fresh() {
		t.Fatal("fresh dir should report Fresh")
	}
	if _, err := d.CompleteRotate(func(w io.Writer) error {
		_, err := w.Write([]byte("ckpt-1\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != 1 {
		t.Fatalf("gen = %d, want 1", d.Generation())
	}
	fmt.Fprintf(d, "tail-line-1\n")
	fmt.Fprintf(d, "tail-line-2\n")
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	ckpt, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-1\n" {
		t.Errorf("ckpt = %q", ckpt)
	}
	if string(tail) != "tail-line-1\ntail-line-2\n" {
		t.Errorf("tail = %q", tail)
	}

	// Rotate: boundary bytes buffered before BeginRotate land in the old
	// tail; bytes after it land in the new one.
	fmt.Fprintf(d, "old-epoch\n")
	d.BeginRotate()
	fmt.Fprintf(d, "new-epoch\n")
	st, err := d.CompleteRotate(func(w io.Writer) error {
		_, err := w.Write([]byte("ckpt-2\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TruncatedBytes == 0 {
		t.Error("rotation reclaimed no bytes")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	ckpt, tail, err = d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-2\n" {
		t.Errorf("ckpt after rotate = %q", ckpt)
	}
	if string(tail) != "new-epoch\n" {
		t.Errorf("tail after rotate = %q (old-epoch bytes must be truncated away)", tail)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Old generation files must be gone.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want exactly ckpt-2 + tail-2", names)
	}

	// Reopen: generation and contents survive.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Generation() != 2 {
		t.Fatalf("reopened gen = %d, want 2", d2.Generation())
	}
	ckpt, tail, err = d2.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-2\n" || string(tail) != "new-epoch\n" {
		t.Errorf("reopened segments = %q / %q", ckpt, tail)
	}
}

func TestDiskSweepsStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash between rotation and cleanup: both generations on
	// disk, plus a torn temp file.
	writeFile(t, filepath.Join(dir, "ckpt-00000001.wal"), "old-ckpt\n")
	writeFile(t, filepath.Join(dir, "tail-00000001.wal"), "old-tail\n")
	writeFile(t, filepath.Join(dir, "ckpt-00000002.wal"), "new-ckpt\n")
	writeFile(t, filepath.Join(dir, "ckpt-00000003.wal.tmp"), "torn")

	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Generation() != 2 {
		t.Fatalf("gen = %d, want newest complete generation 2", d.Generation())
	}
	ckpt, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "new-ckpt\n" {
		t.Errorf("ckpt = %q", ckpt)
	}
	if len(tail) != 0 {
		t.Errorf("missing tail should read empty, got %q", tail)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000001.wal")); !os.IsNotExist(err) {
		t.Error("stale generation 1 checkpoint not swept")
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000003.wal.tmp")); !os.IsNotExist(err) {
		t.Error("temp file not swept")
	}
}

func TestDiskTruncateTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompleteRotate(func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(d, "good line\ntorn li")
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.TruncateTail(int64(len("good line\n"))); err != nil {
		t.Fatal(err)
	}
	_, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, []byte("good line\n")) {
		t.Fatalf("tail after truncate = %q", tail)
	}
	d.Close()
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// --- Rotation-gate regressions: a Sync racing a checkpoint rotation must
// never flush post-boundary bytes (a restarted-sequence stream destined
// for the next tail) into the outgoing tail, and a failed rotation must
// wedge the log instead of silently resuming a broken stream.

// TestSyncParksDuringRotation: a Sync entering between BeginRotate and
// CompleteRotate parks on the rotation gate and flushes into the NEW tail
// once it is live. Pre-fix, the Sync could win the file mutex ahead of
// CompleteRotate and fsync the post-boundary record into the outgoing
// tail, which the rotation then deleted — losing an acknowledged commit.
func TestSyncParksDuringRotation(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompleteRotate(func(w io.Writer) error {
		_, err := w.Write([]byte("ckpt-1\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(d, "pre-boundary\n")
	d.BeginRotate()
	fmt.Fprintf(d, "post-boundary\n") // numbered for the next tail stream

	synced := make(chan error, 1)
	go func() { synced <- d.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("Sync completed mid-rotation (err=%v): post-boundary bytes may have reached the outgoing tail", err)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := d.CompleteRotate(func(w io.Writer) error {
		_, err := w.Write([]byte("ckpt-2\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatalf("parked Sync after rotation: %v", err)
	}
	ckpt, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-2\n" {
		t.Errorf("ckpt = %q, want ckpt-2", ckpt)
	}
	if string(tail) != "post-boundary\n" {
		t.Errorf("new tail = %q, want exactly the post-boundary record", tail)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRotationWedgesLog: after CompleteRotate fails, the boundary
// has already restarted the journal's record numbering, so the log is
// sealed — Sync and Write report the failure (nothing acknowledges), the
// old generation is untouched on disk, and a restart recovers it.
// Pre-fix, the next Sync appended the restarted-seq records to the old
// tail, an interior sequence break Strict recovery rejects.
func TestFailedRotationWedgesLog(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompleteRotate(func(w io.Writer) error {
		_, err := w.Write([]byte("ckpt-1\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(d, "acked-1\n")
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	d.BeginRotate()
	fmt.Fprintf(d, "post-boundary\n")
	injected := errors.New("checkpoint media gone")
	if _, err := d.CompleteRotate(func(io.Writer) error { return injected }); !errors.Is(err, injected) {
		t.Fatalf("CompleteRotate = %v, want the injected failure", err)
	}

	if err := d.Sync(); err == nil {
		t.Fatal("Sync on a wedged log must fail: its buffered records restart the sequence mid-stream")
	}
	if _, err := d.Write([]byte("more\n")); err == nil {
		t.Fatal("Write on a wedged log must fail")
	}
	if d.Failed() == nil {
		t.Fatal("Failed() must report the wedge")
	}
	ckpt, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-1\n" || string(tail) != "acked-1\n" {
		t.Fatalf("old generation disturbed by failed rotation: ckpt=%q tail=%q", ckpt, tail)
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close on a wedged log should surface the wedge")
	}

	// Restart: the intact old generation recovers cleanly.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Generation() != 1 {
		t.Fatalf("reopened gen = %d, want 1", d2.Generation())
	}
	ckpt, tail, err = d2.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "ckpt-1\n" || string(tail) != "acked-1\n" {
		t.Fatalf("recovered segments = %q / %q", ckpt, tail)
	}
}

// shortWriteTail fails its first Write after persisting only half the
// bytes — the short-write-plus-error shape os.File can produce.
type shortWriteTail struct {
	tailFile
	failNext bool
}

func (p *shortWriteTail) Write(b []byte) (int, error) {
	if p.failNext {
		p.failNext = false
		n, err := p.tailFile.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		return n, errors.New("injected short write")
	}
	return p.tailFile.Write(b)
}

// TestPartialTailWriteRequeuesOnlySuffix: after a short write + error, a
// retried Sync must append only the unpersisted suffix. Pre-fix it
// re-queued the whole buffer, duplicating the already-persisted prefix
// mid-stream — a sequence error Strict recovery rejects.
func TestPartialTailWriteRequeuesOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompleteRotate(func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	d.tail = &shortWriteTail{tailFile: d.tail, failNext: true}
	fmt.Fprintf(d, "record-1\nrecord-2\n")
	if err := d.Sync(); err == nil {
		t.Fatal("first Sync should report the injected write failure")
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	_, tail, err := d.ReadSegments()
	if err != nil {
		t.Fatal(err)
	}
	if string(tail) != "record-1\nrecord-2\n" {
		t.Fatalf("tail = %q: retried Sync must not duplicate the partially written prefix", tail)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
