// Package fault provides deterministic crash- and corruption-injection for
// the durability stack. The protocol's recovery story (DESIGN.md §10) is
// only as good as the damage it has been exercised under, so every fault
// this package injects is reproducible from its parameters alone: a
// CrashWriter persists exactly the journal prefix a process that died at a
// chosen kill point would have left behind (including a torn final
// record), the Mutation set models media damage (bit flips, duplicated and
// dropped records, truncation at arbitrary byte offsets), and Schedule is
// the shared counter-driven predicate behind transport injection
// (replica.WithDropEveryNth) and any other every-nth fault plan. A record
// is whatever one Write call carries, so the package never learns the
// journal format.
//
// Nothing here is random at fault time: harnesses enumerate kill points and
// mutations exhaustively (internal/sim's kill-point sweep, the wal fuzz
// targets), so a failing case replays from its inputs.
package fault

import (
	"bytes"
	"slices"
	"sync/atomic"
)

// Plan specifies where a CrashWriter's process "dies": the point after
// which appended bytes no longer reach the simulated disk. The zero Plan
// never kills (everything persists).
type Plan struct {
	// KillAfterRecords stops persistence after this many complete records
	// (Write calls) have been written; 0 disables the record-count kill
	// point.
	KillAfterRecords int
	// KillAtByte stops persistence after this many bytes; 0 disables the
	// byte kill point. When both are set, whichever trips first wins.
	KillAtByte int64
	// TornTailBytes persists this many bytes of the first suppressed
	// record, modeling a write torn by the crash. The torn bytes never
	// complete the record.
	TornTailBytes int
}

// CrashWriter is an io.Writer that models an OS page cache on a machine
// that loses power: the application sees every Write succeed, but only the
// prefix written before the Plan's kill point survives to Persisted(). Use
// it behind a wal.Writer to reproduce any crash a disconnection period can
// suffer; with the zero Plan it records a journal image record by record
// (Records).
type CrashWriter struct {
	plan   Plan
	disk   bytes.Buffer
	ends   []int // disk offset past each complete record
	killed bool
	torn   bool // the first suppressed record has been torn
}

// NewCrashWriter returns a CrashWriter that persists according to p.
func NewCrashWriter(p Plan) *CrashWriter {
	return &CrashWriter{plan: p}
}

// Write accepts b — one record — in full (the process is still alive and
// its writes "succeed"); bytes beyond the kill point are dropped, except
// for TornTailBytes of the first suppressed record.
func (w *CrashWriter) Write(b []byte) (int, error) {
	if w.killed {
		if !w.torn {
			w.torn = true
			w.disk.Write(b[:max(0, min(w.plan.TornTailBytes, len(b)-1))])
		}
		return len(b), nil
	}
	keep := b
	if at := w.plan.KillAtByte; at > 0 && int64(w.disk.Len()+len(b)) >= at {
		keep = b[:at-int64(w.disk.Len())]
		w.killed = true
		w.torn = len(keep) < len(b) // the kill cut this record
	}
	w.disk.Write(keep)
	if len(keep) == len(b) {
		w.ends = append(w.ends, w.disk.Len())
	}
	if w.plan.KillAfterRecords > 0 && len(w.ends) >= w.plan.KillAfterRecords {
		w.killed = true
	}
	return len(b), nil
}

// Killed reports whether the kill point has been reached (writes after it
// were dropped).
func (w *CrashWriter) Killed() bool { return w.killed }

// Persisted returns the bytes that survived the crash — what recovery gets
// to read.
func (w *CrashWriter) Persisted() []byte {
	return append([]byte(nil), w.disk.Bytes()...)
}

// Records returns the persisted image split into its records, a torn
// final fragment last — the form Mutate corrupts.
func (w *CrashWriter) Records() [][]byte {
	data := w.Persisted()
	var out [][]byte
	start := 0
	for _, end := range append(w.ends, len(data)) {
		if end > start {
			out = append(out, data[start:end])
		}
		start = end
	}
	return out
}

// Op enumerates the deterministic corruptions Mutate can inflict on a
// journal image.
type Op int

// Corruption operators.
const (
	// TruncateAt keeps the first Arg bytes (a crash mid-write, or a file
	// system that lost the tail).
	TruncateAt Op = iota
	// FlipBit flips bit (Arg mod 8) of byte (Arg div 8) — bit rot.
	FlipBit
	// DuplicateRecord repeats record index Arg (0-based) immediately after
	// itself — a replayed buffer flush.
	DuplicateRecord
	// DropRecord removes record index Arg (0-based) — a lost buffer flush.
	DropRecord
)

func (o Op) String() string {
	switch o {
	case TruncateAt:
		return "truncate-at"
	case FlipBit:
		return "flip-bit"
	case DuplicateRecord:
		return "duplicate-record"
	case DropRecord:
		return "drop-record"
	default:
		return "unknown-op"
	}
}

// Mutation is one corruption: an operator plus its position argument.
type Mutation struct {
	Op  Op
	Arg int64
}

// Mutate applies a sequence of mutations left to right to a journal image
// given as its records (CrashWriter.Records) and returns the corrupted
// bytes; the input is never modified. Out-of-range arguments clamp to
// no-ops (fuzzers pass arbitrary offsets).
func Mutate(recs [][]byte, ms ...Mutation) []byte {
	recs = slices.Clone(recs)
	for _, m := range ms {
		if m.Arg < 0 {
			continue
		}
		i := int(m.Arg)
		switch m.Op {
		case TruncateAt, FlipBit:
			at := m.Arg
			if m.Op == FlipBit {
				at = m.Arg / 8
			}
			for r, rec := range recs {
				if at >= int64(len(rec)) {
					at -= int64(len(rec))
					continue
				}
				if m.Op == TruncateAt {
					recs = append(recs[:r], rec[:at])
				} else {
					recs[r] = slices.Clone(rec)
					recs[r][at] ^= 1 << (m.Arg % 8)
				}
				break
			}
		case DuplicateRecord:
			if m.Arg < int64(len(recs)) {
				recs = slices.Insert(recs, i, recs[i])
			}
		case DropRecord:
			if m.Arg < int64(len(recs)) {
				recs = slices.Delete(recs, i, i+1)
			}
		}
	}
	return bytes.Join(recs, nil)
}

// Schedule is a deterministic counter-driven fault plan shared by every
// every-nth injector: the transport layer's response dropper
// (replica.WithDropEveryNth) stores one, and harnesses can use it for any
// "fault every nth event" policy. The zero Schedule never faults. Safe for
// concurrent use.
type Schedule struct {
	everyNth atomic.Int64
	count    atomic.Int64
}

// SetEveryNth makes every nth Hit report a fault; n <= 0 disables.
func (s *Schedule) SetEveryNth(n int64) { s.everyNth.Store(n) }

// Hit counts one event and reports whether it should fault.
func (s *Schedule) Hit() bool {
	n := s.everyNth.Load()
	if n <= 0 {
		return false
	}
	return s.count.Add(1)%n == 0
}
