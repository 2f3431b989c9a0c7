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
// stream (a crash tore the last append) from a damaged length. A commit
// record holds one or more whole transactions, and its frame's CRC is
// their commit: a transaction is in the log exactly when the frame that
// holds it is complete, so a crash can only lose a torn final frame.
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
	// KindCommit commits one or more transactions, each with its full
	// binary code and what its execution read and wrote.
	KindCommit Kind = "commit"
	// KindWindow marks a base-tier time-window advance (base journals
	// only): the new window id and its origin snapshot.
	KindWindow Kind = "window"
)

// kindTags numbers the kinds on disk: a record's tag is its kind's index.
// Tags 1 to 6 numbered the one-record-per-operation kinds of the v1 format
// (checkout, begin, read, write, commit, window).
var kindTags = [...]Kind{7: KindCheckout, 8: KindCommit, 9: KindWindow}

var errV1 = errors.New("wal: record in the v1 one-record-per-operation format")

// Record is one record of the journal.
type Record struct {
	Seq  int64
	Kind Kind

	// KindCommit: the transactions the record commits, in log order.
	Txns []Txn

	// KindCheckout / KindWindow (a window record's Pos is 0)
	WindowID int
	Pos      int
	Origin   map[model.Item]model.Value

	// staged is a commit record's transactions as Writer.Stage encoded them.
	staged []byte
}

// Txn is one transaction of a commit record: its binary code
// (tx.MarshalTransaction), which carries its ID, and one entry per item its
// execution touched, in item order.
type Txn struct {
	Code  []byte
	Items []Entry
}

// Entry is what one execution did to one item, laid out as tx.ItemEffect:
// the value it observed, and for a write the before- and after-image.
type Entry struct {
	Item          model.Item
	Observed      bool
	Value         model.Value // the observed read value
	Written       bool
	Before, After model.Value
	// Delta is set on a pure commutative increment of Item (tx.ItemEffect's
	// DeltaPure), which replay re-derives and cross-checks. A pointer
	// distinguishes "not a delta write" from a zero increment.
	Delta *model.Value
}

// Entry flags on disk.
const (
	flagObserved byte = 1 << iota
	flagWritten
	flagDelta
)

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
	switch {
	case r.Kind != KindCommit:
		enc.Varint(int64(r.WindowID))
		enc.Varint(int64(r.Pos))
		enc.State(r.Origin)
	case r.staged != nil:
		enc.Raw(r.staged)
	default:
		for _, t := range r.Txns {
			enc.Blob(t.Code)
			enc.Uvarint(uint64(len(t.Items)))
			for _, e := range t.Items {
				encodeEntry(enc, e)
			}
		}
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

// encodeEntry appends one entry: the item, its flags, then the values the
// flags announce.
func encodeEntry(enc *codec.Encoder, e Entry) {
	enc.Str(string(e.Item))
	flags := byte(0)
	for i, set := range [...]bool{e.Observed, e.Written, e.Delta != nil} { // the flag order
		if set {
			flags |= 1 << i
		}
	}
	enc.Byte(flags)
	if e.Observed {
		enc.Value(e.Value)
	}
	if e.Written {
		enc.Value(e.Before)
		enc.Value(e.After)
	}
	if e.Delta != nil {
		enc.Value(*e.Delta)
	}
}

// decodeEntry reads one entry encodeEntry wrote.
func decodeEntry(dec *codec.Decoder) Entry {
	e := Entry{Item: model.Item(dec.Str())}
	flags := dec.Byte()
	if flags&^(flagObserved|flagWritten|flagDelta) != 0 || flags&flagDelta != 0 && flags&flagWritten == 0 {
		dec.Fail("wal: entry flags %#x", flags)
	}
	if e.Observed = flags&flagObserved != 0; e.Observed {
		e.Value = dec.Value()
	}
	if e.Written = flags&flagWritten != 0; e.Written {
		e.Before, e.After = dec.Value(), dec.Value()
	}
	if flags&flagDelta != 0 {
		d := dec.Value()
		e.Delta = &d
	}
	return e
}

// decodeRecord decodes one frame body.
func decodeRecord(body []byte) (Record, error) {
	dec := codec.NewDecoder(body)
	r := Record{Seq: int64(dec.Uvarint())}
	switch tag := int(dec.Byte()); {
	case tag > 6 && tag < len(kindTags):
		r.Kind = kindTags[tag]
	case tag > 0 && tag <= 6 && dec.Err() == nil:
		return r, errV1
	default:
		dec.Fail("wal: unknown record tag %d", tag)
	}
	switch r.Kind {
	case KindCheckout, KindWindow:
		r.WindowID = int(dec.Varint())
		r.Pos = int(dec.Varint())
		r.Origin = dec.State()
	case KindCommit:
		for dec.More() {
			t := Txn{Code: dec.Blob(), Items: make([]Entry, dec.Count())}
			for i := range t.Items {
				t.Items[i] = decodeEntry(dec)
			}
			r.Txns = append(r.Txns, t)
		}
	}
	return r, dec.Finish()
}

// Syncer is the stable-media seam: a journal sink that can force buffered
// bytes to durable storage (*os.File, internal/store's segmented tail).
// Sinks without it (bytes.Buffer, pipes) count as durable at once.
type Syncer interface {
	Sync() error
}

// Writer appends records to a journal stream, one Write per record.
type Writer struct {
	sink io.Writer
	seq  int64
	// staged holds the transactions Stage encoded for the next commit
	// record, code and frame scratch; all reused, as sinks copy (io.Writer).
	staged, code, frame []byte
}

// NewWriter starts a journal on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{sink: w}
}

// NewPeriod starts a journal on w holding one whole period: the checkout
// record, then one commit record — empty when n is 0 — holding each of n
// transactions in order as txn(i) returns it with its effect. The returned
// writer continues the period.
func NewPeriod(w io.Writer, windowID, pos int, origin model.State, n int, txn func(i int) (*tx.Transaction, *tx.Effect)) (*Writer, error) {
	lw := NewWriter(w)
	if err := lw.Checkout(windowID, pos, origin); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := lw.Stage(txn(i)); err != nil {
			return nil, err
		}
	}
	return lw, lw.commit()
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

// Resume makes lw continue a scanned stream after its decoded records and
// returns the offset just past them: a torn frame beyond it must be cut
// away before the next append.
func (lw *Writer) Resume(res *ScanResult) int64 {
	lw.seq = int64(len(res.Records))
	if lw.seq == 0 {
		return 0
	}
	return res.Ends[lw.seq-1]
}

// write appends r to the sink as one frame, numbering it next.
func (lw *Writer) write(r Record) error {
	r.Seq = lw.seq + 1
	frame, err := AppendRecord(lw.frame[:0], r)
	lw.frame = frame
	if err == nil {
		_, err = lw.sink.Write(frame)
	}
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	lw.seq++
	return nil
}

// Checkout logs the replica origin the tentative history starts from. The
// record is encoded before Checkout returns, so origin is read, never kept.
func (lw *Writer) Checkout(windowID, pos int, origin model.State) error {
	return lw.write(Record{Kind: KindCheckout, WindowID: windowID, Pos: pos, Origin: origin})
}

// Window logs a base-tier window advance with the new window's origin, read
// as Checkout reads it.
func (lw *Writer) Window(windowID int, origin model.State) error {
	return lw.write(Record{Kind: KindWindow, WindowID: windowID, Origin: origin})
}

// LogTxn journals one executed transaction as a commit record of its own:
// its code, and every item's read value and write images.
func (lw *Writer) LogTxn(t *tx.Transaction, eff *tx.Effect) error {
	if err := lw.Stage(t, eff); err != nil {
		return err
	}
	return lw.Commit()
}

// Stage adds one executed transaction to the commit record Commit writes
// next. The transaction is encoded before Stage returns, so neither t nor
// eff is kept.
func (lw *Writer) Stage(t *tx.Transaction, eff *tx.Effect) error {
	code, err := tx.AppendTransaction(lw.code[:0], t)
	lw.code = code
	if err != nil {
		return fmt.Errorf("wal: encode %s: %w", t.ID, err)
	}
	enc := codec.NewEncoder(lw.staged)
	enc.Blob(code)
	enc.Uvarint(uint64(len(eff.Items)))
	for _, r := range eff.Items {
		e := Entry{Item: r.Item, Observed: r.Observed, Value: r.ReadValue, Written: r.Written, Before: r.Before, After: r.Value}
		if r.DeltaPure() {
			e.Delta = &r.Delta
		}
		encodeEntry(enc, e)
	}
	lw.staged, _ = enc.Result()
	return nil
}

// Commit writes the staged transactions as one commit record — one frame,
// one Write. With nothing staged it writes nothing.
func (lw *Writer) Commit() error {
	if len(lw.staged) == 0 {
		return nil
	}
	return lw.commit()
}

// commit writes the staged transactions, however few, as a commit record.
func (lw *Writer) commit() error {
	err := lw.write(Record{Kind: KindCommit, staged: lw.staged})
	lw.staged = lw.staged[:0]
	return err
}

// ScanMode selects how Scan treats journal damage.
type ScanMode int

// Scan modes.
const (
	// Strict accepts exactly one kind of damage: a final frame cut short by
	// the end of the stream (the crash interrupted the last append). Any
	// complete frame that fails its checks — a checksum, a decode, or a
	// sequence-number break from a dropped or duplicated record — is
	// ErrCorrupt wherever it sits: replaying a silently truncated prefix
	// would drop acknowledged work.
	Strict ScanMode = iota
	// Salvage never fails on damage: it decodes the longest valid prefix,
	// stops at the first damaged frame, and reports where the journal tears
	// and how much it discarded. Recovery must not run on a salvaged prefix;
	// the mode is for forensics (walinspect -salvage).
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
	// Discarded counts the bytes from a damaged frame on that Salvage
	// skipped (0 for a frame cut short, and in Strict mode).
	Discarded int64
}

// Scan reads a journal stream to its end and decodes it (ScanBytes).
func Scan(r io.Reader, mode ScanMode) (*ScanResult, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	return ScanBytes(buf.Bytes(), mode)
}

// ScanBytes decodes the journal stream data under the given mode; the
// records' code aliases data. Beyond each frame's checks it verifies that
// sequence numbers run contiguous from 1, so dropped and duplicated records
// are detected even when every surviving frame is intact. The JSON-lines
// and v1 formats of earlier versions are refused by name.
func ScanBytes(data []byte, mode ScanMode) (*ScanResult, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("wal: stream is a JSON-lines journal, a format this version no longer reads: %w", ErrCorrupt)
	}
	n := 0 // frames, counted by their lengths to size the result
	for off := 0; off+headerSize <= len(data) && n < len(data)/(headerSize+trailerSize); n++ {
		off += headerSize + int(binary.BigEndian.Uint32(data[off:])) + trailerSize
	}
	res := &ScanResult{Records: make([]Record, 0, n), Ends: make([]int64, 0, n)}
	for off := 0; off < len(data); {
		rec, n, cut, err := nextRecord(data[off:], int64(len(res.Records))+1)
		if err != nil {
			if off == 0 && errors.Is(err, errV1) {
				return nil, fmt.Errorf("wal: stream is a v1 journal (one record per operation), a format this version no longer reads: %w", ErrCorrupt)
			}
			res.Torn, res.TornRecord, res.TornOffset, res.TornReason = true, len(res.Records)+1, int64(off), err.Error()
			if cut {
				break
			}
			if mode == Strict {
				return nil, fmt.Errorf("wal: record %d at offset %d: %s: %w", res.TornRecord, off, err, ErrCorrupt)
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
// number seq, and returns it with the frame's size. On failure err says
// why and cut reports a frame cut short by the end of data.
func nextRecord(data []byte, seq int64) (rec Record, n int, cut bool, err error) {
	if len(data) < headerSize {
		return rec, 0, true, fmt.Errorf("frame header cut short at %d bytes", len(data))
	}
	length := binary.BigEndian.Uint32(data)
	if binary.BigEndian.Uint16(data[4:]) != lengthCheck(data) {
		return rec, 0, false, errors.New("frame length fails its check")
	}
	if length > maxBody {
		return rec, 0, false, fmt.Errorf("frame length %d exceeds the %d-byte limit", length, maxBody)
	}
	n = headerSize + int(length) + trailerSize
	if len(data) < n {
		return rec, 0, true, fmt.Errorf("frame of %d bytes cut short at %d", n, len(data))
	}
	body := data[headerSize : n-trailerSize]
	if binary.BigEndian.Uint32(data[n-trailerSize:]) != crc32.Checksum(body, castagnoli) {
		return rec, 0, false, errors.New("record fails its checksum")
	}
	if rec, err = decodeRecord(body); err != nil {
		return rec, 0, false, err
	}
	if rec.Seq != seq {
		// A crash can only tear the tail; a sequence break means a whole
		// record vanished or repeated, which no crash produces.
		return rec, 0, false, fmt.Errorf("sequence break: record %d, want %d", rec.Seq, seq)
	}
	return rec, n, false, nil
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
// with the entries logged for it, or (base streams only) a window advance.
type Group struct {
	// Txn is the committed transaction; nil for a window advance, whose
	// new window and origin snapshot WindowID and Origin hold.
	Txn      *tx.Transaction
	WindowID int
	Origin   model.State
	// logs are the transaction's entries, in item order.
	logs []Entry
}

// Groups decodes the records of a journal stream that follow its checkout
// record (or of a headless continuation, such as a base tail segment) into
// committed transactions and window advances, in log order.
func Groups(recs []Record) ([]Group, error) {
	var groups []Group
	for _, rec := range recs {
		switch rec.Kind {
		case KindCommit:
			for _, t := range rec.Txns {
				txn, err := tx.UnmarshalTransaction(t.Code)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				groups = append(groups, Group{Txn: txn, logs: t.Items})
			}
		case KindWindow:
			groups = append(groups, Group{WindowID: rec.WindowID, Origin: rec.Origin})
		case KindCheckout:
			return nil, fmt.Errorf("%w: duplicate checkout record", ErrCorrupt)
		default:
			return nil, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.Kind)
		}
	}
	return groups, nil
}

// Verify checks a replayed execution of the group's transaction against
// what the journal logged: the items it touched, every read value, every
// write's after-image and before-image, and the delta annotations. A
// mismatch means the log and the code disagree — the log is corrupt.
func (g *Group) Verify(eff *tx.Effect) error {
	id := g.Txn.ID
	if len(g.logs) != len(eff.Items) {
		return fmt.Errorf("%w: %s touched %d items, journal has %d", ErrCorrupt, id, len(eff.Items), len(g.logs))
	}
	for i, r := range g.logs {
		got := eff.Items[i]
		switch {
		case r.Item != got.Item:
			return fmt.Errorf("%w: %s touched %s, journal has %s", ErrCorrupt, id, got.Item, r.Item)
		case r.Observed != got.Observed || r.Value != got.ReadValue && r.Observed:
			return fmt.Errorf("%w: %s read %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.Value, got.ReadValue)
		case r.Written != got.Written || r.After != got.Value && r.Written:
			return fmt.Errorf("%w: %s wrote %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.After, got.Value)
		case r.Before != got.Before && r.Written:
			// prune.ByUndo restores before-images: as dangerous as a bad after-image.
			return fmt.Errorf("%w: %s before-image %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, r.Before, got.Before)
		case (r.Delta != nil) != got.DeltaPure():
			// Deltas drive edge elision and folding after recovery: a
			// spurious one could merge a non-commutative write without an
			// edge, and a dropped one still signals a log/code disagreement.
			return fmt.Errorf("%w: %s delta on %s: logged %v, replay classified %v", ErrCorrupt, id, r.Item, r.Delta != nil, got.DeltaPure())
		case r.Delta != nil && *r.Delta != got.Delta:
			return fmt.Errorf("%w: %s delta %s: logged %d, replayed %d", ErrCorrupt, id, r.Item, *r.Delta, got.Delta)
		}
	}
	return nil
}

// Replayed is a tentative run reconstructed from a journal.
type Replayed struct {
	WindowID  int
	Pos       int
	Origin    model.State
	Augmented *history.Augmented
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
	groups, err := Groups(body)
	if err != nil {
		return nil, err
	}
	h := &history.History{}
	for _, g := range groups {
		if g.Txn == nil {
			return nil, fmt.Errorf("%w: window record in a tentative journal", ErrCorrupt)
		}
		h.Append(g.Txn)
	}
	aug, err := history.Run(h, head.Origin)
	if err != nil {
		return nil, fmt.Errorf("%w: replay execution: %v", ErrCorrupt, err)
	}
	for i := range groups {
		if err := groups[i].Verify(aug.Effects[i]); err != nil {
			return nil, err
		}
	}
	return &Replayed{WindowID: head.WindowID, Pos: head.Pos, Origin: head.Origin, Augmented: aug}, nil
}
