package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSerialReportGolden: the serial report (no -concurrent, no -messages)
// is deterministic, so it is pinned byte for byte. A refactor must leave it
// unchanged; a change that moves a counter on purpose regenerates the
// golden with `go run ./cmd/tiermerge <args> > cmd/tiermerge/testdata/<golden>`.
func TestSerialReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"basenodes3-window2.golden", "-basenodes 3 -window 2 -rounds 4"},
		{"origin1-basenodes2.golden", "-origin 1 -basenodes 2 -rounds 4"},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), false, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("tiermerge %s:\n%s\nwant (testdata/%s):\n%s", tc.args, out.Bytes(), tc.golden, want)
			}
		})
	}
}
