// Package wal implements the mobile node's write-ahead log. The paper's
// protocol is log-driven end to end: the precedence graph "can be built by
// parsing the log for Hm and the log for Hb ... if read operations (or read
// sets) are recorded in the log" (Section 7.1), the undo approach restores
// logged before-images (Section 6.2), and non-canned systems "record the
// codes of transactions when they are executed" (Section 5.1). This package
// supplies exactly that log: an append-only JSON-lines journal carrying the
// checkout origin, full transaction code, read values and write images —
// enough to reconstruct the tentative history (with effects) after a crash
// and to verify the replayed execution against the logged one.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// ErrCorrupt is wrapped by replay errors caused by a log whose records
// contradict re-execution (torn writes, bit rot, or a mismatched origin).
var ErrCorrupt = errors.New("wal: corrupt log")

// Kind tags a log record.
type Kind string

// Record kinds.
const (
	// KindCheckout opens a journal: the replica origin snapshot and its
	// position in the base history.
	KindCheckout Kind = "checkout"
	// KindBegin carries a transaction's full wire-format code and marks
	// its start.
	KindBegin Kind = "begin"
	// KindRead records one externally read item and the value observed.
	KindRead Kind = "read"
	// KindWrite records one updated item with its before- and after-image.
	KindWrite Kind = "write"
	// KindCommit seals a transaction; transactions without a commit are
	// discarded at replay (crash semantics).
	KindCommit Kind = "commit"
	// KindWindow marks a base-tier time-window advance (base journals
	// only): the new window id and its origin snapshot.
	KindWindow Kind = "window"
)

// Record is one JSON line of the journal.
type Record struct {
	Seq  int64  `json:"seq"`
	Kind Kind   `json:"kind"`
	TxID string `json:"tx,omitempty"`

	// KindBegin
	Txn json.RawMessage `json:"txn,omitempty"`

	// KindRead / KindWrite
	Item   model.Item  `json:"item,omitempty"`
	Value  model.Value `json:"value,omitempty"`
	Before model.Value `json:"before,omitempty"`
	After  model.Value `json:"after,omitempty"`
	// Delta is set on a KindWrite record when the statement was a pure
	// commutative increment of Item (After == Before + Delta and the
	// transaction never read Item outside the increment itself). Replay
	// re-derives the classification and cross-checks it, so the merge layer
	// can trust recovered histories to fold deltas exactly as live ones.
	// A pointer distinguishes "not a delta write" from a zero increment.
	Delta *model.Value `json:"delta,omitempty"`

	// KindCheckout
	WindowID int                        `json:"window,omitempty"`
	Pos      int                        `json:"pos,omitempty"`
	Origin   map[model.Item]model.Value `json:"origin,omitempty"`
}

// Syncer is the stable-media seam: a journal sink that can force buffered
// bytes to durable storage. *os.File satisfies it, as does the segmented
// tail of internal/store. Sinks without it (bytes.Buffer in tests, network
// pipes) are treated as instantaneously durable.
type Syncer interface {
	Sync() error
}

// Writer appends records to a journal stream.
type Writer struct {
	enc  *json.Encoder
	sink io.Writer
	seq  int64
}

// NewWriter starts a journal on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w), sink: w}
}

// Sync forces every appended record to stable media when the sink supports
// it (Syncer) and is a no-op otherwise. Commit paths must call it before
// acknowledging: a record that reached only the sink's buffer cache can
// vanish on power loss.
func (lw *Writer) Sync() error {
	if s, ok := lw.sink.(Syncer); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// ResetSeq restarts sequence numbering so the next record is numbered
// seq 1. The segmented base log uses it at checkpoint rotation: each tail
// segment is an independent journal stream whose records Scan verifies as
// contiguous from 1.
func (lw *Writer) ResetSeq() { lw.seq = 0 }

// SetSeq makes the next record carry sequence number seq+1 — reattaching a
// writer to a recovered journal continues its numbering.
func (lw *Writer) SetSeq(seq int64) { lw.seq = seq }

func (lw *Writer) append(r Record) error {
	lw.seq++
	r.Seq = lw.seq
	if err := lw.enc.Encode(r); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// Checkout logs the replica origin the tentative history starts from. The
// record is encoded before Checkout returns, so origin is read, never kept.
func (lw *Writer) Checkout(windowID, pos int, origin model.State) error {
	return lw.append(Record{Kind: KindCheckout, WindowID: windowID, Pos: pos, Origin: origin})
}

// Window logs a base-tier window advance with the new window's origin, read
// as Checkout reads it.
func (lw *Writer) Window(windowID int, origin model.State) error {
	return lw.append(Record{Kind: KindWindow, WindowID: windowID, Origin: origin})
}

// LogTxn journals one executed tentative transaction: begin (with code),
// every external read value, every write image, commit.
func (lw *Writer) LogTxn(t *tx.Transaction, eff *tx.Effect) error {
	code, err := tx.MarshalTransaction(t)
	if err != nil {
		return fmt.Errorf("wal: encode %s: %w", t.ID, err)
	}
	if err := lw.append(Record{Kind: KindBegin, TxID: t.ID, Txn: code}); err != nil {
		return err
	}
	for _, it := range sortedItems(eff.ReadValues) {
		if err := lw.append(Record{
			Kind: KindRead, TxID: t.ID, Item: it, Value: eff.ReadValues[it],
		}); err != nil {
			return err
		}
	}
	pure := eff.DeltaPure()
	for _, it := range sortedItems(eff.Writes) {
		rec := Record{
			Kind: KindWrite, TxID: t.ID, Item: it,
			Before: eff.Before[it], After: eff.Writes[it],
		}
		if pure.Has(it) {
			d := eff.Deltas[it]
			rec.Delta = &d
		}
		if err := lw.append(rec); err != nil {
			return err
		}
	}
	return lw.append(Record{Kind: KindCommit, TxID: t.ID})
}

func sortedItems[V any](m map[model.Item]V) []model.Item {
	out := make([]model.Item, 0, len(m))
	for it := range m {
		out = append(out, it)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ScanMode selects how Scan treats journal damage.
type ScanMode int

// Scan modes.
const (
	// Strict accepts exactly one kind of damage: a torn final line (the
	// crash interrupted the last append). Any earlier damage — a malformed
	// interior line, a sequence-number break from a dropped or duplicated
	// line — is ErrCorrupt: the journal no longer represents the history
	// that was acknowledged, and replaying a silently truncated prefix
	// would drop committed work.
	Strict ScanMode = iota
	// Salvage never fails on damage: it decodes the longest valid prefix,
	// stops at the first damaged line, and reports where the journal tears
	// and how much it discarded. Recovery must not run on a salvaged
	// prefix (acknowledged work past the tear is lost); the mode exists
	// for forensics — walinspect -salvage dumps what a damaged log still
	// proves.
	Salvage
)

// ScanResult is a decoded journal stream plus the damage report.
type ScanResult struct {
	// Records is the decoded prefix.
	Records []Record
	// Torn reports whether the stream ended in (Strict) or was cut at
	// (Salvage) a damaged line.
	Torn bool
	// TornLine is the 1-based line number of the tear (0 when !Torn).
	TornLine int
	// TornOffset is the byte offset at which the torn line starts.
	TornOffset int64
	// TornReason describes the decode or sequence error at the tear.
	TornReason string
	// DiscardedLines counts non-empty lines after the tear that Salvage
	// skipped (always 0 in Strict mode, which fails instead).
	DiscardedLines int
}

// Scan decodes a journal stream under the given mode. Beyond per-line JSON
// validity it verifies the append-only contract: record sequence numbers
// are contiguous from 1, so dropped and duplicated lines are detected even
// when every surviving line parses cleanly.
func Scan(r io.Reader, mode ScanMode) (*ScanResult, error) {
	res := &ScanResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		line   int
		offset int64
	)
	tearAt := func(reason string) {
		res.Torn = true
		res.TornLine = line
		res.TornOffset = offset
		res.TornReason = reason
	}
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if res.Torn {
			// Past the first damaged line. Strict tolerates damage only on
			// the final line, so any further content is corruption, not a
			// tear; Salvage counts what it is discarding.
			if len(raw) == 0 {
				offset += int64(len(raw)) + 1
				continue
			}
			if mode == Strict {
				return nil, fmt.Errorf("wal: line %d: %s (damage before end of journal): %w",
					res.TornLine, res.TornReason, ErrCorrupt)
			}
			res.DiscardedLines++
			offset += int64(len(raw)) + 1
			continue
		}
		if len(raw) == 0 {
			offset += int64(len(raw)) + 1
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			tearAt(err.Error())
			offset += int64(len(raw)) + 1
			continue
		}
		if want := int64(len(res.Records)) + 1; rec.Seq != want {
			// A crash can only tear the tail; a sequence break means a
			// whole line vanished or repeated, which no crash produces.
			reason := fmt.Sprintf("sequence break: record %d, want %d", rec.Seq, want)
			if mode == Salvage {
				tearAt(reason)
				res.DiscardedLines++
				offset += int64(len(raw)) + 1
				continue
			}
			return nil, fmt.Errorf("wal: line %d: %s: %w", line, reason, ErrCorrupt)
		}
		res.Records = append(res.Records, rec)
		offset += int64(len(raw)) + 1
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	return res, nil
}

// ReadAll decodes every record of a journal stream in Strict mode: a torn
// final line (crash damage) is dropped; any damage before the end of the
// stream is ErrCorrupt. Callers that need the tear report use Scan.
func ReadAll(r io.Reader) ([]Record, error) {
	res, err := Scan(r, Strict)
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}

// Replayed is a tentative run reconstructed from a journal.
type Replayed struct {
	WindowID  int
	Pos       int
	Origin    model.State
	Augmented *history.Augmented
	// Dropped counts trailing uncommitted transactions discarded at
	// replay (crash semantics).
	Dropped int
}

// Replay rebuilds the tentative history from journal records: it decodes
// the checkout origin and every committed transaction's code, re-executes
// the history serially and cross-checks each transaction's logged read
// values and write images against the replayed effects. A mismatch means
// the log and the code disagree — the log is corrupt.
//
// Origin and Augmented.Origin adopt records[0].Origin (nil when empty)
// without copying it, so the caller must not mutate the records afterwards.
func Replay(records []Record) (*Replayed, error) {
	if len(records) == 0 || records[0].Kind != KindCheckout {
		return nil, fmt.Errorf("%w: journal must start with a checkout record", ErrCorrupt)
	}
	rep := &Replayed{
		WindowID: records[0].WindowID,
		Pos:      records[0].Pos,
		Origin:   records[0].Origin,
	}

	type pending struct {
		t       *tx.Transaction
		reads   map[model.Item]model.Value
		writes  map[model.Item]model.Value
		befores map[model.Item]model.Value
		deltas  map[model.Item]model.Value
	}
	var (
		cur       *pending
		committed []*pending
	)
	for _, rec := range records[1:] {
		switch rec.Kind {
		case KindBegin:
			if cur != nil {
				// begin without commit: the previous transaction tore
				return nil, fmt.Errorf("%w: begin %s while %s uncommitted",
					ErrCorrupt, rec.TxID, cur.t.ID)
			}
			t, err := tx.UnmarshalTransaction(rec.Txn)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			cur = &pending{
				t:       t,
				reads:   make(map[model.Item]model.Value),
				writes:  make(map[model.Item]model.Value),
				befores: make(map[model.Item]model.Value),
				deltas:  make(map[model.Item]model.Value),
			}
		case KindRead:
			if cur == nil || cur.t.ID != rec.TxID {
				return nil, fmt.Errorf("%w: stray read record for %s", ErrCorrupt, rec.TxID)
			}
			cur.reads[rec.Item] = rec.Value
		case KindWrite:
			if cur == nil || cur.t.ID != rec.TxID {
				return nil, fmt.Errorf("%w: stray write record for %s", ErrCorrupt, rec.TxID)
			}
			cur.writes[rec.Item] = rec.After
			cur.befores[rec.Item] = rec.Before
			if rec.Delta != nil {
				cur.deltas[rec.Item] = *rec.Delta
			}
		case KindCommit:
			if cur == nil || cur.t.ID != rec.TxID {
				return nil, fmt.Errorf("%w: stray commit record for %s", ErrCorrupt, rec.TxID)
			}
			committed = append(committed, cur)
			cur = nil
		case KindCheckout:
			return nil, fmt.Errorf("%w: duplicate checkout record", ErrCorrupt)
		default:
			return nil, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.Kind)
		}
	}
	if cur != nil {
		rep.Dropped++ // trailing uncommitted transaction: crash victim
	}

	h := &history.History{}
	for _, p := range committed {
		h.Append(p.t)
	}
	aug, err := history.Run(h, rep.Origin)
	if err != nil {
		return nil, fmt.Errorf("%w: replay execution: %v", ErrCorrupt, err)
	}
	// Integrity check: replayed effects must reproduce the journal.
	for i, p := range committed {
		eff := aug.Effects[i]
		for it, v := range p.reads {
			if got, ok := eff.ReadValues[it]; !ok || got != v {
				return nil, fmt.Errorf("%w: %s read %s: logged %d, replayed %d",
					ErrCorrupt, p.t.ID, it, v, got)
			}
		}
		if len(p.writes) != len(eff.Writes) {
			return nil, fmt.Errorf("%w: %s wrote %d items, journal has %d",
				ErrCorrupt, p.t.ID, len(eff.Writes), len(p.writes))
		}
		for it, v := range p.writes {
			if got := eff.Writes[it]; got != v {
				return nil, fmt.Errorf("%w: %s wrote %s: logged %d, replayed %d",
					ErrCorrupt, p.t.ID, it, v, got)
			}
		}
		// Before-images feed the undo approach (prune.ByUndo restores
		// them), so a corrupt before-image is as dangerous as a corrupt
		// after-image: verify both against the replayed effects.
		for it, v := range p.befores {
			if got := eff.Before[it]; got != v {
				return nil, fmt.Errorf("%w: %s before-image %s: logged %d, replayed %d",
					ErrCorrupt, p.t.ID, it, v, got)
			}
		}
		// Delta annotations drive edge elision and associative folding after
		// recovery, so they must agree with the replayed classification in
		// both directions: a spurious delta could merge a non-commutative
		// write without an edge, a dropped one merely loses the optimization
		// but still signals a log/code disagreement.
		pure := eff.DeltaPure()
		if len(p.deltas) != len(pure) {
			return nil, fmt.Errorf("%w: %s logged %d delta writes, replay classified %d",
				ErrCorrupt, p.t.ID, len(p.deltas), len(pure))
		}
		for it, d := range p.deltas {
			if !pure.Has(it) {
				return nil, fmt.Errorf("%w: %s delta on %s: replay classified a value write",
					ErrCorrupt, p.t.ID, it)
			}
			if got := eff.Deltas[it]; got != d {
				return nil, fmt.Errorf("%w: %s delta %s: logged %d, replayed %d",
					ErrCorrupt, p.t.ID, it, d, got)
			}
		}
	}
	rep.Augmented = aug
	return rep, nil
}
