// Package wal owns the journal: its record format, its framing and the
// grouping of records into transactions. Every journal in the system is a
// wal stream — a mobile node's write-ahead log, the reconnect payload a
// mobile ships, and the base tier's journal with its window records and its
// checkpoint and tail segments — and no other package decodes one. The
// paper's protocol is log-driven end to end: the precedence graph "can be
// built by parsing the log for Hm and the log for Hb ... if read operations
// (or read sets) are recorded in the log" (Section 7.1), the undo approach
// restores logged before-images (Section 6.2), and non-canned systems
// "record the codes of transactions when they are executed" (Section 5.1).
// This package supplies exactly that log: an append-only stream of
// checksummed binary records carrying the checkout origin, full
// transaction code, read values and write images — enough to reconstruct a
// history (with effects) after a crash and to verify the replayed
// execution against the logged one.
//
// Each record is one frame, written with one Write: the body's length
// (uint32), a check over the length (uint16), the body (internal/codec:
// seq, kind tag, the kind's fields) and a CRC-32C of the body, all
// big-endian. The length check tells a frame cut short by the end of the
// stream (a crash tore the last append) from a damaged length.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"tiermerge/internal/codec"
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
	// KindBegin carries a transaction's full binary code and marks its
	// start.
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

// kindTags numbers the kinds on disk: a record's tag is its kind's index.
var kindTags = [...]Kind{1: KindCheckout, 2: KindBegin, 3: KindRead, 4: KindWrite, 5: KindCommit, 6: KindWindow}

// Record is one record of the journal.
type Record struct {
	Seq  int64
	Kind Kind
	TxID string

	// KindBegin
	Txn []byte

	// KindRead / KindWrite
	Item   model.Item
	Value  model.Value
	Before model.Value
	After  model.Value
	// Delta is set on a KindWrite record when the statement was a pure
	// commutative increment of Item (After == Before + Delta and the
	// transaction never read Item outside the increment itself). Replay
	// re-derives the classification and cross-checks it, so the merge layer
	// can trust recovered histories to fold deltas exactly as live ones.
	// A pointer distinguishes "not a delta write" from a zero increment.
	Delta *model.Value

	// KindCheckout / KindWindow (a window record's Pos is 0)
	WindowID int
	Pos      int
	Origin   map[model.Item]model.Value
}

// Frame geometry, and a body cap that keeps a stream's first byte below
// the '{' a JSON-lines journal opens with.
const (
	headerSize  = 6
	trailerSize = 4
	maxBody     = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// lengthCheck is a frame's check over its length bytes: CRC-32C is linear,
// so its low half catches every single-byte error in them.
func lengthCheck(length []byte) uint16 { return uint16(crc32.Checksum(length[:4], castagnoli)) }

// AppendRecord appends r to b as one frame.
func AppendRecord(b []byte, r Record) ([]byte, error) {
	start := len(b)
	enc := codec.NewEncoder(append(b, make([]byte, headerSize)...))
	enc.Uvarint(uint64(r.Seq))
	tag := slices.Index(kindTags[:], r.Kind)
	if tag <= 0 {
		enc.Fail("wal: unknown record kind %q", r.Kind)
	}
	enc.Byte(byte(tag))
	switch r.Kind {
	case KindCheckout, KindWindow:
		enc.Varint(int64(r.WindowID))
		enc.Varint(int64(r.Pos))
		enc.State(r.Origin)
	case KindBegin:
		enc.Str(r.TxID)
		enc.Blob(r.Txn)
	case KindRead:
		enc.Str(r.TxID)
		enc.Str(string(r.Item))
		enc.Value(r.Value)
	case KindWrite:
		enc.Str(r.TxID)
		enc.Str(string(r.Item))
		enc.Value(r.Before)
		enc.Value(r.After)
		if r.Delta == nil {
			enc.Byte(0)
		} else {
			enc.Byte(1)
			enc.Value(*r.Delta)
		}
	case KindCommit:
		enc.Str(r.TxID)
	}
	b, err := enc.Result()
	n := len(b) - start - headerSize
	if err == nil && n > maxBody {
		err = fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", n, maxBody)
	}
	if err != nil {
		return b[:start], err
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	binary.BigEndian.PutUint16(b[start+4:], lengthCheck(b[start:]))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start+headerSize:], castagnoli)), nil
}

// decodeRecord decodes one frame body.
func decodeRecord(body []byte) (Record, error) {
	dec := codec.NewDecoder(body)
	r := Record{Seq: int64(dec.Uvarint())}
	if tag := int(dec.Byte()); tag > 0 && tag < len(kindTags) {
		r.Kind = kindTags[tag]
	} else {
		dec.Fail("wal: unknown record tag %d", tag)
	}
	switch r.Kind {
	case KindCheckout, KindWindow:
		r.WindowID = int(dec.Varint())
		r.Pos = int(dec.Varint())
		r.Origin = dec.State()
	case KindBegin:
		r.TxID = dec.Str()
		r.Txn = dec.Blob()
	case KindRead:
		r.TxID = dec.Str()
		r.Item = model.Item(dec.Str())
		r.Value = dec.Value()
	case KindWrite:
		r.TxID = dec.Str()
		r.Item = model.Item(dec.Str())
		r.Before = dec.Value()
		r.After = dec.Value()
		switch flag := dec.Byte(); flag {
		case 0:
		case 1:
			d := dec.Value()
			r.Delta = &d
		default:
			dec.Fail("wal: delta flag %d", flag)
		}
	case KindCommit:
		r.TxID = dec.Str()
	}
	return r, dec.Finish()
}

// Syncer is the stable-media seam: a journal sink that can force buffered
// bytes to durable storage. *os.File satisfies it, as does the segmented
// tail of internal/store. Sinks without it (bytes.Buffer in tests, network
// pipes) are treated as instantaneously durable.
type Syncer interface {
	Sync() error
}

// Writer appends records to a journal stream, one Write per record.
type Writer struct {
	sink io.Writer
	seq  int64
	// frame is reused across records: a sink copies what it is given
	// (io.Writer's contract).
	frame []byte
}

// NewWriter starts a journal on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{sink: w}
}

// NewPeriod starts a journal on w holding one whole period: the checkout
// record, then each of n transactions in order as txn(i) returns it with
// its effect. The returned writer continues the period.
func NewPeriod(w io.Writer, windowID, pos int, origin model.State, n int, txn func(i int) (*tx.Transaction, *tx.Effect)) (*Writer, error) {
	lw := NewWriter(w)
	if err := lw.Checkout(windowID, pos, origin); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := lw.LogTxn(txn(i)); err != nil {
			return nil, err
		}
	}
	return lw, nil
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
// seq 1, starting a fresh stream. The segmented base log uses it at
// checkpoint rotation: each tail segment is an independent journal stream
// whose records Scan verifies as contiguous from 1.
func (lw *Writer) ResetSeq() { lw.seq = 0 }

// Resume makes lw continue a scanned stream after its first n records, so
// the next record is numbered n+1. It returns the byte offset at which the
// stream holds exactly those n records: whatever lies past it (a torn
// frame, a transaction that never committed) must be cut away before the
// next append.
func (lw *Writer) Resume(res *ScanResult, n int) int64 {
	lw.seq = int64(n)
	if n == 0 {
		return 0
	}
	return res.Ends[n-1]
}

func (lw *Writer) append(r Record) error {
	lw.seq++
	r.Seq = lw.seq
	frame, err := AppendRecord(lw.frame[:0], r)
	lw.frame = frame
	if err == nil {
		_, err = lw.sink.Write(frame)
	}
	if err != nil {
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
	// Records are in item order, which is the journal's order: every read
	// value, then every write image.
	for _, r := range eff.Items {
		if !r.Observed {
			continue
		}
		if err := lw.append(Record{Kind: KindRead, TxID: t.ID, Item: r.Item, Value: r.ReadValue}); err != nil {
			return err
		}
	}
	for _, r := range eff.Items {
		if !r.Written {
			continue
		}
		rec := Record{Kind: KindWrite, TxID: t.ID, Item: r.Item, Before: r.Before, After: r.Value}
		if r.DeltaPure() {
			d := r.Delta
			rec.Delta = &d
		}
		if err := lw.append(rec); err != nil {
			return err
		}
	}
	return lw.append(Record{Kind: KindCommit, TxID: t.ID})
}

// ScanMode selects how Scan treats journal damage.
type ScanMode int

// Scan modes.
const (
	// Strict accepts exactly one kind of damage: a final frame cut short by
	// the end of the stream (the crash interrupted the last append). Any
	// complete frame that fails its checks — a checksum, a decode, or a
	// sequence-number break from a dropped or duplicated record — is
	// ErrCorrupt wherever it sits: the journal no longer represents the
	// history that was acknowledged, and replaying a silently truncated
	// prefix would drop committed work.
	Strict ScanMode = iota
	// Salvage never fails on damage: it decodes the longest valid prefix,
	// stops at the first damaged frame, and reports where the journal tears
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
	// Ends[i] is the byte offset just past Records[i]'s frame: the stream
	// cut there holds exactly Records[:i+1].
	Ends []int64
	// Torn reports whether the stream ended in a frame cut short (both
	// modes) or Salvage stopped at a damaged frame.
	Torn bool
	// TornRecord is the 1-based number of the torn frame (0 when !Torn).
	TornRecord int
	// TornOffset is the byte offset at which the torn frame starts.
	TornOffset int64
	// TornReason describes the tear or the damage.
	TornReason string
	// Discarded counts the bytes from a damaged frame to the end of the
	// stream that Salvage skipped (0 for a frame cut short, and in Strict
	// mode, which fails instead).
	Discarded int64
}

// Scan decodes a journal stream under the given mode. Beyond each frame's
// checksums and decode it verifies the append-only contract: record
// sequence numbers are contiguous from 1, so dropped and duplicated
// records are detected even when every surviving frame is intact. A
// stream in the JSON-lines format of earlier versions is refused by name.
func Scan(r io.Reader, mode ScanMode) (*ScanResult, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	data := buf.Bytes()
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("wal: stream is a JSON-lines journal, a format this version no longer reads: %w", ErrCorrupt)
	}
	n := 0 // frames, counted by their lengths to size the result
	for off := 0; off+headerSize <= len(data) && n < len(data)/(headerSize+trailerSize); n++ {
		off += headerSize + int(binary.BigEndian.Uint32(data[off:])) + trailerSize
	}
	res := &ScanResult{Records: make([]Record, 0, n), Ends: make([]int64, 0, n)}
	for off := 0; off < len(data); {
		rec, n, cut, reason := nextRecord(data[off:], int64(len(res.Records))+1)
		if reason != "" {
			res.Torn, res.TornRecord, res.TornOffset, res.TornReason = true, len(res.Records)+1, int64(off), reason
			if cut {
				break
			}
			if mode == Strict {
				return nil, fmt.Errorf("wal: record %d at offset %d: %s: %w", res.TornRecord, off, reason, ErrCorrupt)
			}
			res.Discarded = int64(len(data) - off)
			break
		}
		res.Records = append(res.Records, rec)
		off += n
		res.Ends = append(res.Ends, int64(off))
	}
	return res, nil
}

// nextRecord decodes the frame data starts with, which must carry record
// number seq, and returns it with the frame's size. On failure reason
// says why and cut reports a frame cut short by the end of data.
func nextRecord(data []byte, seq int64) (rec Record, n int, cut bool, reason string) {
	if len(data) < headerSize {
		return rec, 0, true, fmt.Sprintf("frame header cut short at %d bytes", len(data))
	}
	length := binary.BigEndian.Uint32(data)
	if binary.BigEndian.Uint16(data[4:]) != lengthCheck(data) {
		return rec, 0, false, "frame length fails its check"
	}
	if length > maxBody {
		return rec, 0, false, fmt.Sprintf("frame length %d exceeds the %d-byte limit", length, maxBody)
	}
	n = headerSize + int(length) + trailerSize
	if len(data) < n {
		return rec, 0, true, fmt.Sprintf("frame of %d bytes cut short at %d", n, len(data))
	}
	body := data[headerSize : n-trailerSize]
	if binary.BigEndian.Uint32(data[n-trailerSize:]) != crc32.Checksum(body, castagnoli) {
		return rec, 0, false, "record fails its checksum"
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return rec, 0, false, err.Error()
	}
	if rec.Seq != seq {
		// A crash can only tear the tail; a sequence break means a whole
		// record vanished or repeated, which no crash produces.
		return rec, 0, false, fmt.Sprintf("sequence break: record %d, want %d", rec.Seq, seq)
	}
	return rec, n, false, ""
}

// ReadAll decodes every record of a journal stream in Strict mode: a torn
// final frame (crash damage) is dropped; any damage before the end of the
// stream is ErrCorrupt. Callers that need the tear report use Scan.
func ReadAll(r io.Reader) ([]Record, error) {
	res, err := Scan(r, Strict)
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}

// SplitCheckout splits a journal stream that must open with a checkout
// record — a mobile journal, a reconnect payload, a full base journal or a
// checkpoint segment — into that record and the records after it.
func SplitCheckout(recs []Record) (Record, []Record, error) {
	if len(recs) == 0 || recs[0].Kind != KindCheckout {
		return Record{}, nil, fmt.Errorf("%w: journal must start with a checkout record", ErrCorrupt)
	}
	return recs[0], recs[1:], nil
}

// Group is one decoded unit of a journal stream: a committed transaction
// with the read and write records its commit sealed, or (base streams
// only) a window advance.
type Group struct {
	// Txn is the committed transaction's code; nil for a window advance.
	Txn *tx.Transaction
	// WindowID and Origin are a window advance's new window and its origin
	// snapshot.
	WindowID int
	Origin   model.State
	// logs are the transaction's read and write records, in log order.
	logs []Record
}

// Groups decodes the records of a journal stream that follow its checkout
// record (or of a headless continuation, such as a base tail segment) into
// committed transactions and window advances, in log order. complete counts
// the records those groups span: recs[complete:] is a trailing transaction
// that never committed — a crash victim the caller drops. Any other
// structural damage is ErrCorrupt.
func Groups(recs []Record) (groups []Group, complete int, err error) {
	var open *tx.Transaction // the begun, not yet committed transaction
	begin := 0               // index of open's begin record
	for i, rec := range recs {
		switch rec.Kind {
		case KindBegin:
			if open != nil {
				// begin without commit: the previous transaction tore
				return nil, 0, fmt.Errorf("%w: begin %s while %s uncommitted", ErrCorrupt, rec.TxID, open.ID)
			}
			t, err := tx.UnmarshalTransaction(rec.Txn)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			open, begin = t, i
		case KindRead, KindWrite, KindCommit:
			if open == nil || open.ID != rec.TxID {
				return nil, 0, fmt.Errorf("%w: stray %s record for %s", ErrCorrupt, rec.Kind, rec.TxID)
			}
			if rec.Kind == KindCommit {
				groups = append(groups, Group{Txn: open, logs: recs[begin+1 : i]})
				open, complete = nil, i+1
			}
		case KindWindow:
			if open != nil {
				return nil, 0, fmt.Errorf("%w: window advance while %s uncommitted", ErrCorrupt, open.ID)
			}
			groups = append(groups, Group{WindowID: rec.WindowID, Origin: rec.Origin})
			complete = i + 1
		case KindCheckout:
			return nil, 0, fmt.Errorf("%w: duplicate checkout record", ErrCorrupt)
		default:
			return nil, 0, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.Kind)
		}
	}
	return groups, complete, nil
}

// Verify checks a replayed execution of the group's transaction against
// what the journal logged: every read value, every write's after-image and
// before-image, and the delta annotations. A mismatch means the log and the
// code disagree — the log is corrupt.
func (g *Group) Verify(eff *tx.Effect) error {
	id := g.Txn.ID
	var writes, deltas, wantWrites, wantDeltas int
	for _, r := range eff.Items {
		if r.Written {
			wantWrites++
		}
		if r.Written && r.DeltaPure() {
			wantDeltas++
		}
	}
	for _, r := range g.logs {
		got, _ := eff.Lookup(r.Item)
		if r.Kind == KindRead {
			if !got.Observed || got.ReadValue != r.Value {
				return fmt.Errorf("%w: %s read %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.Value, got.ReadValue)
			}
			continue
		}
		writes++
		if !got.Written || got.Value != r.After {
			return fmt.Errorf("%w: %s wrote %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.After, got.Value)
		}
		// Before-images feed the undo approach (prune.ByUndo restores
		// them), so a corrupt before-image is as dangerous as a corrupt
		// after-image.
		if got.Before != r.Before {
			return fmt.Errorf("%w: %s before-image %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.Before, got.Before)
		}
		// Delta annotations drive edge elision and associative folding
		// after recovery, so they must agree with the replayed
		// classification in both directions: a spurious delta could merge a
		// non-commutative write without an edge, a dropped one merely loses
		// the optimization but still signals a log/code disagreement.
		if r.Delta == nil {
			continue
		}
		deltas++
		if !got.DeltaPure() {
			return fmt.Errorf("%w: %s delta on %s: replay classified a value write", ErrCorrupt, id, r.Item)
		}
		if got.Delta != *r.Delta {
			return fmt.Errorf("%w: %s delta %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, *r.Delta, got.Delta)
		}
	}
	if writes != wantWrites {
		return fmt.Errorf("%w: %s wrote %d items, journal has %d", ErrCorrupt, id, wantWrites, writes)
	}
	if deltas != wantDeltas {
		return fmt.Errorf("%w: %s logged %d delta writes, replay classified %d", ErrCorrupt, id, deltas, wantDeltas)
	}
	return nil
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
// the history serially and verifies each transaction against its logged
// reads and writes (Group.Verify).
//
// Origin and Augmented.Origin adopt records[0].Origin (nil when empty)
// without copying it, so the caller must not mutate the records afterwards.
func Replay(records []Record) (*Replayed, error) {
	head, body, err := SplitCheckout(records)
	if err != nil {
		return nil, err
	}
	groups, complete, err := Groups(body)
	if err != nil {
		return nil, err
	}
	rep := &Replayed{WindowID: head.WindowID, Pos: head.Pos, Origin: head.Origin}
	if complete < len(body) {
		rep.Dropped++ // trailing uncommitted transaction: crash victim
	}
	h := &history.History{}
	for _, g := range groups {
		if g.Txn == nil {
			return nil, fmt.Errorf("%w: window record in a tentative journal", ErrCorrupt)
		}
		h.Append(g.Txn)
	}
	aug, err := history.Run(h, rep.Origin)
	if err != nil {
		return nil, fmt.Errorf("%w: replay execution: %v", ErrCorrupt, err)
	}
	for i := range groups {
		if err := groups[i].Verify(aug.Effects[i]); err != nil {
			return nil, err
		}
	}
	rep.Augmented = aug
	return rep, nil
}
