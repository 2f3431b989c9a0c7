package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tiermerge"
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
		{"crash-skip-hot-window.golden", "-pcrash 0.5 -pskip 0.4 -hotitems 4 -phot 0.9 -window 2 -rounds 4"},
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

// TestRefusedFlagCombinations: flags no mode can honour together are an
// error, not a run that silently drops one of them.
func TestRefusedFlagCombinations(t *testing.T) {
	for _, args := range []string{
		"-concurrent -messages",
		"-drop 3",
		"-concurrent -drop 3",
	} {
		err := run(strings.Fields(args), false, io.Discard)
		if !errors.Is(err, tiermerge.ErrBadClusterConfig) {
			t.Errorf("tiermerge %s: err = %v, want ErrBadClusterConfig", args, err)
		}
	}
}
