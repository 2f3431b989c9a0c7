package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestExitCodeOnBadFixture pins the gate contract: the linter exits 1
// (not 0, not a crash) on a package with known violations.
func TestExitCodeOnBadFixture(t *testing.T) {
	if got := run([]string{"-dir", "../../internal/analysis/testdata/src/lockheld"}); got != 1 {
		t.Fatalf("run on known-bad fixture: exit %d, want 1", got)
	}
}

// TestExitCodeOnCleanFixture: a conforming package exits 0.
func TestExitCodeOnCleanFixture(t *testing.T) {
	if got := run([]string{"-dir", "../../internal/analysis/testdata/src/clean"}); got != 0 {
		t.Fatalf("run on clean fixture: exit %d, want 0", got)
	}
}

// TestExitCodeOnMissingDir: loader failures are exit 2, distinct from
// findings.
func TestExitCodeOnMissingDir(t *testing.T) {
	if got := run([]string{"-dir", "../../internal/analysis/testdata/src/nosuchpkg"}); got != 2 {
		t.Fatalf("run on missing dir: exit %d, want 2", got)
	}
}

// TestList: -list prints the suite and exits 0.
func TestList(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("-list: exit %d, want 0", got)
	}
}

// TestJSONOutput: -json emits one parseable object per finding with the
// fields machine consumers key on, and still exits 1 on violations.
func TestJSONOutput(t *testing.T) {
	out := captureStdout(t, func() {
		if got := run([]string{"-json", "-dir", "../../internal/analysis/testdata/src/lockheld"}); got != 1 {
			t.Errorf("-json run on known-bad fixture: exit %d, want 1", got)
		}
	})
	sc := bufio.NewScanner(bytes.NewReader(out))
	n := 0
	for sc.Scan() {
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", n+1, err, sc.Text())
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("diagnostic missing fields: %+v", d)
		}
		n++
	}
	if n == 0 {
		t.Fatal("-json produced no diagnostics on a known-bad fixture")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
