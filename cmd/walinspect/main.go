// Command walinspect dumps and verifies a mobile node's write-ahead log:
// it lists the records, replays the committed prefix (cross-checking the
// logged read values and write images against re-execution), and reports
// the reconstructed tentative state.
//
//	walinspect m1.wal
//	walinspect -records m1.wal   # dump raw records too
//	walinspect -salvage m1.wal   # forensics on a damaged journal
//
// By default the journal is read strictly: only a torn final record (crash
// damage) is tolerated; a record failing its checksum anywhere, or a
// journal in the JSON-lines or v1 format of earlier versions, is an error.
// -salvage decodes the longest valid prefix of a journal strict mode
// rejects and reports where it tears and what was discarded — for
// diagnosis only; recovery never trusts a salvaged prefix.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tiermerge"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(1)
	}
}

func run() error {
	records := flag.Bool("records", false, "dump every record")
	code := flag.Bool("code", false, "pretty-print each transaction's code in the profile language")
	salvage := flag.Bool("salvage", false, "decode the longest valid prefix of a damaged journal and report the tear")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: walinspect [-records] [-code] [-salvage] <journal-file>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	return inspect(os.Stdout, f, *records, *code, *salvage)
}

// inspect dumps and verifies a journal stream onto w.
func inspect(w io.Writer, r io.Reader, records, code, salvage bool) error {
	var recs []tiermerge.WALRecord
	if salvage {
		res, err := tiermerge.SalvageWAL(r)
		if err != nil {
			return err
		}
		recs = res.Records
		if res.Torn {
			fmt.Fprintf(w, "TORN at record %d (offset %d): %s\n", res.TornRecord, res.TornOffset, res.TornReason)
		}
		if res.Discarded > 0 {
			fmt.Fprintf(w, "DISCARDED %d byte(s) from the tear on — acknowledged work may be lost\n", res.Discarded)
		}
	} else {
		var err error
		recs, err = tiermerge.ReadWAL(r)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%d records\n", len(recs))
	if records {
		for _, rec := range recs {
			dumpRecord(w, rec)
		}
	}

	rep, err := tiermerge.ReplayWAL(recs)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprintf(w, "verified: %d committed transactions (window %d, base position %d)\n",
		rep.Augmented.H.Len(), rep.WindowID, rep.Pos)
	fmt.Fprintln(w, "history: ", rep.Augmented.H)
	fmt.Fprintln(w, "origin:  ", rep.Origin)
	fmt.Fprintln(w, "state:   ", rep.Augmented.Final())
	if code {
		fmt.Fprintln(w, "\ncommitted transaction code:")
		for i := 0; i < rep.Augmented.H.Len(); i++ {
			t := rep.Augmented.H.Txn(i)
			fmt.Fprintf(w, "  %s { %s }\n", t.ID, tiermerge.FormatBody(t.Body))
		}
	}
	return nil
}

// dumpRecord prints one record: a checkout or window record on one line, a
// commit record as the IDs it commits, then one line per transaction with
// its code size and every item entry — the value read, the write images
// and the delta of a pure increment.
func dumpRecord(w io.Writer, rec tiermerge.WALRecord) {
	switch rec.Kind {
	case "checkout", "window":
		fmt.Fprintf(w, "%5d  %-8s window=%d pos=%d origin(%d items)\n",
			rec.Seq, rec.Kind, rec.WindowID, rec.Pos, len(rec.Origin))
		return
	case "commit":
	default:
		fmt.Fprintf(w, "%5d  %s\n", rec.Seq, rec.Kind)
		return
	}
	if len(rec.Txns) == 0 {
		fmt.Fprintf(w, "%5d  commit   (no transactions)\n", rec.Seq)
		return
	}
	ids := make([]string, len(rec.Txns))
	for i, t := range rec.Txns {
		ids[i] = "?"
		if txn, err := tiermerge.UnmarshalTransaction(t.Code); err == nil {
			ids[i] = txn.ID
		}
	}
	fmt.Fprintf(w, "%5d  commit   %s\n", rec.Seq, strings.Join(ids, " "))
	for i, t := range rec.Txns {
		fmt.Fprintf(w, "         %s (%d bytes of code)", ids[i], len(t.Code))
		for _, e := range t.Items {
			if e.Observed {
				fmt.Fprintf(w, "  read %s=%d", e.Item, e.Value)
			}
			if e.Written {
				fmt.Fprintf(w, "  write %s: %d -> %d", e.Item, e.Before, e.After)
			}
			if e.Delta != nil {
				fmt.Fprintf(w, " (delta %+d)", *e.Delta)
			}
		}
		fmt.Fprintln(w)
	}
}
