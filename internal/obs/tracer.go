package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Tracer is the Observer that records the raw event stream for per-merge
// phase breakdowns: where each reconnect spent its time — waiting for the
// cluster mutexes included — and what the merge decided. cmd/tiermerge
// trace replays a scenario under a Tracer and prints the result.
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Observe appends the event (arrival order; events of one merge form an
// ordered subsequence because each merge emits sequentially).
func (t *Tracer) Observe(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of every recorded event in arrival order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset discards all recorded events.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}

// MergeTrace groups the events of one reconnect (one merge sequence
// number) in emission order.
type MergeTrace struct {
	Mobile string
	Seq    int64
	Events []Event
}

// Merges groups recorded merge-scoped events (Seq > 0) by reconnect,
// ordered by sequence number.
func (t *Tracer) Merges() []MergeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*MergeTrace)
	order := []int64{}
	for _, ev := range t.events {
		if ev.Seq == 0 {
			continue
		}
		mt, ok := byID[ev.Seq]
		if !ok {
			mt = &MergeTrace{Mobile: ev.Mobile, Seq: ev.Seq}
			byID[ev.Seq] = mt
			order = append(order, ev.Seq)
		}
		mt.Events = append(mt.Events, ev)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]MergeTrace, len(order))
	for i, seq := range order {
		out[i] = *byID[seq]
	}
	return out
}

// Outcome summarizes the trace's final state from its summary event:
// "merged", "fallback(<cause>)" or "incomplete".
func (mt MergeTrace) Outcome() string {
	for i := len(mt.Events) - 1; i >= 0; i-- {
		switch ev := mt.Events[i]; ev.Phase {
		case PhaseFallback:
			return fmt.Sprintf("fallback(%s)", ev.Cause)
		case PhaseMerge:
			if ev.Err != "" {
				return "error"
			}
		}
	}
	for _, ev := range mt.Events {
		if ev.Phase == PhaseMerge {
			return "merged"
		}
	}
	// A crash recovery is its own span group: it happens before the
	// recovered node's next reconnect (which gets its own sequence number).
	for _, ev := range mt.Events {
		if ev.Phase == PhaseRecover {
			return "recovered"
		}
	}
	return "incomplete"
}

// Format writes a human-readable per-phase breakdown of one reconnect.
func (mt MergeTrace) Format(w io.Writer) {
	total := mt.totalDur()
	fmt.Fprintf(w, "merge #%d mobile=%s outcome=%s\n", mt.Seq, mt.Mobile, mt.Outcome())
	for _, ev := range mt.Events {
		var b strings.Builder
		fmt.Fprintf(&b, "  %-14s", ev.Phase)
		if ev.Dur > 0 {
			fmt.Fprintf(&b, " %12v", ev.Dur)
			if total > 0 && ev.Phase != PhaseMerge {
				fmt.Fprintf(&b, " (%4.1f%%)", 100*float64(ev.Dur)/float64(total))
			}
		}
		if ev.Cause != CauseNone {
			fmt.Fprintf(&b, " cause=%s", ev.Cause)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " [%s]", ev.Detail)
		}
		if ev.Saved+ev.BackedOut+ev.Affected > 0 {
			fmt.Fprintf(&b, " saved=%d backedout=%d affected=%d", ev.Saved, ev.BackedOut, ev.Affected)
		}
		if ev.Reexecuted+ev.Failed > 0 {
			fmt.Fprintf(&b, " reexecuted=%d failed=%d", ev.Reexecuted, ev.Failed)
		}
		if ev.BaseViewed > 0 {
			fmt.Fprintf(&b, " base=%d/%d", ev.BaseKept, ev.BaseViewed)
		}
		if ev.Phase == PhaseRecover {
			fmt.Fprintf(&b, " replayed=%d", ev.Replayed)
		}
		if ev.Err != "" {
			fmt.Fprintf(&b, " err=%q", ev.Err)
		}
		fmt.Fprintln(w, b.String())
	}
}

// totalDur is the whole-reconnect duration from the summary event, used to
// express each phase as a percentage.
func (mt MergeTrace) totalDur() (total int64) {
	for _, ev := range mt.Events {
		if ev.Phase == PhaseMerge && ev.Dur > 0 {
			return int64(ev.Dur)
		}
	}
	return 0
}
