// Package merge implements the merging protocol of Section 2.1: build the
// precedence graph over the tentative and base histories, compute the
// back-out set B, rewrite the tentative history to move B (and the affected
// transactions that cannot be saved) to the end, prune the rewritten history
// to obtain the repaired history's effect, and forward only the final values
// of the items the repaired history wrote.
//
// Merge is the literal protocol over an executed base history. MergeIndexed
// runs the same steps against a view of an indexed base history
// (graph.BaseView) — what the base tier keeps per window — and decides
// identically while reading only what the tentative history touches.
package merge

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/prune"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
)

// ErrBadOptions is the typed sentinel wrapped by every Options validation
// failure (unknown rewriter, unknown pruner). Match with errors.Is.
var ErrBadOptions = errors.New("merge: invalid options")

// Rewriter selects the back-out/rewriting algorithm for step 3.
type Rewriter int

// Rewriter choices.
const (
	// RewriteClosure discards B ∪ AG outright (the Davidson baseline; the
	// only choice that supports blind writes).
	RewriteClosure Rewriter = iota + 1
	// RewriteCanFollow is Algorithm 1: saves exactly G − AG.
	RewriteCanFollow
	// RewriteCanPrecede is Algorithm 2: saves G − AG plus every affected
	// transaction the can-precede relation admits.
	RewriteCanPrecede
	// RewriteCBT is the commutes-backward-through baseline of Theorem 4.
	RewriteCBT
	// RewriteCanFollowBW is can-follow rewriting generalized to blind
	// writes (the Section 3 adaptation the paper mentions): like
	// RewriteCanFollow, plus an explicit write-write collision test.
	RewriteCanFollowBW
)

func (r Rewriter) String() string {
	switch r {
	case RewriteClosure:
		return "closure"
	case RewriteCanFollow:
		return "can-follow"
	case RewriteCanPrecede:
		return "can-follow+can-precede"
	case RewriteCBT:
		return "commutes-backward-through"
	case RewriteCanFollowBW:
		return "can-follow-bw"
	default:
		return "unknown"
	}
}

// Pruner selects the step 4 pruning approach.
type Pruner int

// Pruner choices.
const (
	// PruneAuto tries compensation and falls back to undo when some
	// transaction has no compensator.
	PruneAuto Pruner = iota + 1
	// PruneCompensation uses fixed compensating transactions (Section 6.1).
	PruneCompensation
	// PruneUndo uses before-image undo plus undo-repair actions
	// (Section 6.2).
	PruneUndo
)

func (p Pruner) String() string {
	switch p {
	case PruneAuto:
		return "auto"
	case PruneCompensation:
		return "compensation"
	case PruneUndo:
		return "undo"
	default:
		return "unknown"
	}
}

// Options configures a merge.
type Options struct {
	// Strategy computes B (default graph.TwoCycle{}).
	Strategy graph.Strategy
	// Rewriter selects the rewriting algorithm. When left zero it defaults
	// to RewriteCanPrecede, degrading to RewriteCanFollowBW if the
	// tentative history contains blind writes (which the Section 3
	// rewriting model excludes); an explicitly chosen rewriter is never
	// overridden.
	Rewriter Rewriter
	// Detector decides can-precede for RewriteCanPrecede and RewriteCBT
	// (default rewrite.StaticDetector{}).
	Detector rewrite.PrecedeDetector
	// Pruner selects the pruning approach (default PruneAuto).
	Pruner Pruner
	// Verify re-executes the repaired history from the origin state and
	// compares it against the pruned state, failing the merge on mismatch.
	// Intended for tests and debugging; defaults off.
	Verify bool
	// DisableDeltas turns off delta-merge semantics: updates classified as
	// pure commutative increments (tx.ItemEffect.DeltaPure) are treated as plain
	// value writes, every conflict pair gets its precedence edge, and all
	// forwarded updates ship as repaired values. The default (false) elides
	// delta-delta edges and forwards net increments (Report.ForwardDeltas);
	// this switch is the value-write baseline the E18 experiment and the
	// equivalence tests compare against.
	DisableDeltas bool
	// Observer receives per-phase span events (graph build, back-out,
	// rewrite, prune) while the merge runs. nil (the default) pays only a
	// nil check. The replication substrate binds its ClusterConfig.Observer
	// here with the reconnect's identity; standalone Merge callers may set
	// it directly (events then carry no mobile/seq identity).
	Observer obs.Observer
}

// Validate reports misconfiguration — an out-of-range Rewriter or Pruner —
// as an error wrapping ErrBadOptions. Zero values are valid (they select
// defaults). Merge calls it first, so a bad configuration fails fast
// instead of surfacing mid-protocol.
func (o Options) Validate() error {
	if o.Rewriter < 0 || o.Rewriter > RewriteCanFollowBW {
		return fmt.Errorf("%w: unknown rewriter %d", ErrBadOptions, o.Rewriter)
	}
	if o.Pruner < 0 || o.Pruner > PruneUndo {
		return fmt.Errorf("%w: unknown pruner %d", ErrBadOptions, o.Pruner)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Strategy == nil {
		o.Strategy = graph.TwoCycle{}
	}
	if o.Rewriter == 0 {
		o.Rewriter = RewriteCanPrecede
	}
	if o.Detector == nil {
		o.Detector = rewrite.StaticDetector{}
	}
	if o.Pruner == 0 {
		o.Pruner = PruneAuto
	}
	return o
}

// Report is the outcome of one merge.
type Report struct {
	// Graph is the precedence graph G(Hm, Hb) — over the whole of Hb from
	// Merge, over the base entries that can lie on a cycle from MergeIndexed.
	Graph *graph.Graph
	// Conflict reports whether the graph had a cycle (B non-empty).
	Conflict bool
	// BadIDs are the transactions backed out (B), in history order.
	BadIDs []string
	// AffectedIDs are AG, the reads-from closure of B, in history order.
	AffectedIDs []string
	// SavedIDs are the transactions whose work the merge preserved, in
	// repaired-history order.
	SavedIDs []string
	// Reexecute lists the tentative transactions the base tier must
	// re-execute (B plus the affected transactions that were not saved),
	// in original history order.
	Reexecute []*tx.Transaction
	// ForwardUpdates holds, for each item modified by the repaired history
	// through at least one non-delta write, its value in the repaired
	// history's final state — the only data the mobile node ships to the
	// base tier for the saved transactions (Section 2.1 step 5).
	ForwardUpdates map[model.Item]model.Value
	// ForwardDeltas holds, for each item every saved transaction wrote only
	// as a pure commutative increment, the net increment (the associative
	// fold of all saved deltas of the item). Delta items ship as x := x + δ
	// instead of a repaired value, so they compose with base-tier
	// increments committed concurrently instead of clobbering them.
	// Always empty under Options.DisableDeltas.
	ForwardDeltas map[model.Item]model.Value
	// DeltaFolded counts the individual saved delta writes that associative
	// folding collapsed into the net ForwardDeltas entries: the number of
	// per-item delta writes beyond the first. N tentative increments of one
	// item admit as one merged delta; DeltaFolded tallies the N-1 writes
	// that never crossed the wire individually.
	DeltaFolded int
	// RepairedState is the full final state of the repaired history on the
	// mobile replica.
	RepairedState model.State
	// Repaired is the repaired history H_r itself.
	Repaired *history.History
	// RewriteResult carries the rewritten history with fixes, when a
	// rewriting algorithm ran (nil for RewriteClosure).
	RewriteResult *rewrite.Result
	// PruneMethod records which pruning approach actually ran.
	PruneMethod string
	// Options echoes the effective options.
	Options Options
}

// ApplyForwards installs the merge's forwarded write-back into st in place:
// ForwardUpdates as repaired values, ForwardDeltas as increments on top of
// whatever st holds. The two key sets are disjoint by construction. The
// caller hands over st precisely to have it mutated (a copy of the base
// tier's final state, which VerifyMerge compares with the merged history's).
func (rep *Report) ApplyForwards(st model.State) {
	st.Apply(rep.ForwardUpdates)
	for it, d := range rep.ForwardDeltas {
		st.Set(it, st.Get(it)+d)
	}
}

// Merge runs the merging protocol for one tentative history against the
// base history it raced with. Both augmented histories must have been run
// from the same origin state (Strategy 2 of Section 2.2 guarantees this in
// the full protocol).
func Merge(hm, hb *history.Augmented, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = effectiveOptions(hm, opts)
	rep := &Report{Options: opts}
	o := opts.Observer // nil observer: every span below is one nil check

	// Step 1: precedence graph, the literal construction over all of Hb.
	start := spanStart(o)
	rep.Graph = graph.Build(accessesFor(hm, opts), accessesFor(hb, opts))
	if o != nil {
		o.Observe(obs.Event{Phase: obs.PhaseGraph, Dur: time.Since(start)})
	}

	if err := runFromGraph(rep, hm, opts, nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// MergeIndexed is Merge against an indexed base history: step 1 builds the
// graph over Hm and the viewed base entries that can lie on a cycle through
// Hm (graph.BuildIndexed), steps 2–5 are Merge's own. The outcome — B, the
// rewrite, the forwards — equals Merge's over the same entries by
// construction; only Report.Graph is smaller. The view must come from an
// index in opts' delta mode. s (nil: fresh arrays) holds the graph phase's
// transient arrays — build and back-out — for a caller that merges through
// one scratch at a time; the report points into none of them.
func MergeIndexed(hm *history.Augmented, view *graph.BaseView, s *graph.Scratch, opts Options) (*Report, graph.ViewStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, graph.ViewStats{}, err
	}
	if view.Deltas() == opts.DisableDeltas {
		return nil, graph.ViewStats{}, fmt.Errorf("%w: base view indexed with deltas=%v", ErrBadOptions, view.Deltas())
	}
	opts = effectiveOptions(hm, opts)
	rep := &Report{Options: opts}
	o := opts.Observer

	start := spanStart(o)
	var st graph.ViewStats
	rep.Graph, st = graph.BuildIndexed(accessesFor(hm, opts), view, s)
	if o != nil {
		o.Observe(obs.Event{Phase: obs.PhaseGraph, Dur: time.Since(start),
			BaseViewed: st.Viewed, BaseKept: st.Kept})
	}

	if err := runFromGraph(rep, hm, opts, s); err != nil {
		return nil, st, err
	}
	return rep, st, nil
}

// accessesFor extracts the access footprints for graph construction,
// honoring the delta-merge switch: delta-classified by default, the plain
// value-write footprints under DisableDeltas.
func accessesFor(a *history.Augmented, opts Options) []graph.Access {
	if opts.DisableDeltas {
		return graph.AccessesOf(a)
	}
	return graph.DeltaAccessesOf(a)
}

// effectiveOptions resolves the option defaults the way Merge documents:
// when no rewriter was chosen explicitly, RewriteCanPrecede is selected,
// degrading to RewriteCanFollowBW if the tentative history contains blind
// writes.
func effectiveOptions(hm *history.Augmented, opts Options) Options {
	defaulted := opts.Rewriter == 0
	opts = opts.withDefaults()
	if defaulted {
		for i := 0; i < hm.H.Len(); i++ {
			if hm.H.Txn(i).HasBlindWrites() {
				opts.Rewriter = RewriteCanFollowBW
				break
			}
		}
	}
	return opts
}

// runFromGraph runs protocol steps 2–5 (back-out, rewrite, prune, forward
// updates) plus optional verification against the graph already stored in
// rep; the back-out's cycle pass uses s (nil: fresh arrays).
func runFromGraph(rep *Report, hm *history.Augmented, opts Options, s *graph.Scratch) error {
	o := opts.Observer

	// Step 2: back-out set, over the one cycle pass that also tests the
	// graph for a cycle.
	start := spanStart(o)
	b, cyclic, err := graph.BackOut(rep.Graph, opts.Strategy, s)
	if err != nil {
		if o != nil {
			o.Observe(obs.Event{Phase: obs.PhaseBackout, Dur: time.Since(start),
				Detail: fmt.Sprintf("%T", opts.Strategy), Err: err.Error()})
		}
		return fmt.Errorf("merge: back-out: %w", err)
	}
	rep.Conflict = cyclic
	badPos := make(map[int]bool, len(b))
	for _, v := range b {
		badPos[v] = true // tentative vertex index == Hm position
	}
	if o != nil {
		o.Observe(obs.Event{Phase: obs.PhaseBackout, Dur: time.Since(start),
			Detail: fmt.Sprintf("%T", opts.Strategy), BackedOut: len(badPos)})
	}

	// Steps 3 and 4: rewrite and prune.
	if err := rewriteAndPrune(rep, hm, badPos, opts); err != nil {
		return err
	}

	// Step 5: forward only final values of items the repaired history
	// modified — as net increments for the items every saved transaction
	// touched purely as deltas, as repaired values for the rest.
	forwardUpdates(hm, rep, opts)

	if opts.Verify {
		if err := verifyRepair(hm, rep); err != nil {
			return err
		}
	}
	return nil
}

// spanStart returns the span's start time, or the zero time when no
// observer is attached — the nil path never reads the clock.
func spanStart(o obs.Observer) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

func rewriteAndPrune(rep *Report, hm *history.Augmented, badPos map[int]bool, opts Options) error {
	o := opts.Observer
	switch opts.Rewriter {
	case RewriteClosure:
		start := spanStart(o)
		kept, affected := rewrite.ClosureBackout(hm, badPos)
		rep.Repaired = kept
		rep.BadIDs = idsAt(hm, badPos)
		rep.AffectedIDs = idsAt(hm, affected)
		rep.SavedIDs = kept.IDs()
		for i := 0; i < hm.H.Len(); i++ {
			if badPos[i] || affected[i] {
				rep.Reexecute = append(rep.Reexecute, hm.H.Txn(i))
			}
		}
		if o != nil {
			o.Observe(obs.Event{Phase: obs.PhaseRewrite, Dur: time.Since(start),
				Detail: opts.Rewriter.String(), Saved: len(rep.SavedIDs),
				BackedOut: len(rep.BadIDs), Affected: len(rep.AffectedIDs)})
		}
		start = spanStart(o)
		rep.RepairedState = repairedStateByLog(hm, badPos, affected)
		rep.PruneMethod = "log-restore"
		if o != nil {
			o.Observe(obs.Event{Phase: obs.PhasePrune, Dur: time.Since(start),
				Detail: rep.PruneMethod})
		}
		return nil
	case RewriteCanFollow, RewriteCanPrecede, RewriteCBT, RewriteCanFollowBW:
		var (
			res *rewrite.Result
			err error
		)
		start := spanStart(o)
		switch opts.Rewriter {
		case RewriteCanFollow:
			res, err = rewrite.Algorithm1(hm, badPos)
		case RewriteCanPrecede:
			res, err = rewrite.Algorithm2(hm, badPos, opts.Detector)
		case RewriteCanFollowBW:
			res, err = rewrite.Algorithm1BW(hm, badPos)
		default:
			res, err = rewrite.CBTR(hm, badPos, opts.Detector)
		}
		if err != nil {
			if o != nil {
				o.Observe(obs.Event{Phase: obs.PhaseRewrite, Dur: time.Since(start),
					Detail: opts.Rewriter.String(), Err: err.Error()})
			}
			return fmt.Errorf("merge: rewrite: %w", err)
		}
		rep.RewriteResult = res
		rep.Repaired = res.Repaired()
		rep.BadIDs = idsAt(hm, badPos)
		rep.AffectedIDs = idsAt(hm, res.Affected)
		rep.SavedIDs = res.SavedIDs()
		for i := res.PrefixLen; i < res.Rewritten.Len(); i++ {
			rep.Reexecute = append(rep.Reexecute, res.Rewritten.Txn(i))
		}
		sortByOriginalOrder(rep.Reexecute, hm)
		if o != nil {
			o.Observe(obs.Event{Phase: obs.PhaseRewrite, Dur: time.Since(start),
				Detail: opts.Rewriter.String(), Saved: len(rep.SavedIDs),
				BackedOut: len(rep.BadIDs), Affected: len(rep.AffectedIDs)})
		}
		start = spanStart(o)
		state, method, err := pruneResult(res, hm.Final(), opts.Pruner)
		if err != nil {
			if o != nil {
				o.Observe(obs.Event{Phase: obs.PhasePrune, Dur: time.Since(start),
					Err: err.Error()})
			}
			return fmt.Errorf("merge: prune: %w", err)
		}
		rep.RepairedState = state
		rep.PruneMethod = method
		if o != nil {
			o.Observe(obs.Event{Phase: obs.PhasePrune, Dur: time.Since(start),
				Detail: method})
		}
		return nil
	default:
		return fmt.Errorf("merge: unknown rewriter %d", opts.Rewriter)
	}
}

func pruneResult(res *rewrite.Result, final model.State, p Pruner) (model.State, string, error) {
	switch p {
	case PruneCompensation:
		s, _, err := prune.ByCompensation(res, final)
		return s, "compensation", err
	case PruneUndo:
		s, _, err := prune.ByUndo(res, final)
		return s, "undo", err
	case PruneAuto:
		s, _, err := prune.ByCompensation(res, final)
		if err == nil {
			return s, "compensation", nil
		}
		var notInv *tx.NotInvertibleError
		if !errors.As(err, &notInv) {
			return nil, "", err
		}
		s, _, err = prune.ByUndo(res, final)
		return s, "undo", err
	default:
		return nil, "", fmt.Errorf("unknown pruner %d", p)
	}
}

// forwardUpdates populates rep.ForwardUpdates and rep.ForwardDeltas from
// the saved transactions' writes. Write sets are taken from the original
// effects: rewriting never changes which items a transaction writes (branch
// decisions are order-invariant for every saved transaction).
//
// An item every saved writer touched as a pure delta forwards as the
// associative fold of those increments (one net delta, however many
// tentative writes produced it — the folded count lands in DeltaFolded);
// an item with any non-delta saved write forwards as its repaired value.
// The split is safe because a delta-pure mobile write never survives a
// merge alongside a base value-write of the same item (the conflict pair
// keeps its edges, forming a 2-cycle through the implicit pre-reads), so
// a value forward can still never clobber a concurrent base increment.
func forwardUpdates(hm *history.Augmented, rep *Report, opts Options) {
	saved := make(map[string]bool, len(rep.SavedIDs))
	for _, id := range rep.SavedIDs {
		saved[id] = true
	}
	out := make(map[model.Item]model.Value)
	deltas := make(map[model.Item]model.Value)
	writers := make(map[model.Item]int)
	valueOnly := make(model.ItemSet)
	for i := 0; i < hm.H.Len(); i++ {
		if !saved[hm.H.Txn(i).ID] {
			continue
		}
		for _, r := range hm.Effects[i].Items {
			if !r.Written {
				continue
			}
			out[r.Item] = rep.RepairedState.Get(r.Item)
			if !opts.DisableDeltas && r.DeltaPure() {
				deltas[r.Item] += r.Delta
				writers[r.Item]++
			} else {
				valueOnly.Add(r.Item)
			}
		}
	}
	for it, d := range deltas {
		if valueOnly.Has(it) {
			continue // a non-delta saved write pins the item to value semantics
		}
		delete(out, it)
		rep.DeltaFolded += writers[it] - 1
		if rep.ForwardDeltas == nil {
			rep.ForwardDeltas = make(map[model.Item]model.Value)
		}
		rep.ForwardDeltas[it] = d
	}
	rep.ForwardUpdates = out
}

// repairedStateByLog computes the repaired history's final state for the
// closure back-out directly from the log: every item updated by a removed
// transaction is restored to the value written by its last surviving writer
// (or its origin value). Surviving (G − AG) transactions write the same
// values with or without B ∪ AG present, because by construction they read
// nothing B ∪ AG wrote.
func repairedStateByLog(hm *history.Augmented, bad, affected map[int]bool) model.State {
	cur := hm.Final().Clone()
	removed := func(i int) bool { return bad[i] || affected[i] }
	touched := make(model.ItemSet)
	for i := 0; i < hm.H.Len(); i++ {
		if removed(i) {
			for _, r := range hm.Effects[i].Items {
				if r.Written {
					touched.Add(r.Item)
				}
			}
		}
	}
	for it := range touched {
		v := hm.Origin.Get(it) // origin value if no surviving writer
		for i := 0; i < hm.H.Len(); i++ {
			if removed(i) {
				continue
			}
			if r, ok := hm.Effects[i].Lookup(it); ok && r.Written {
				v = r.Value
			}
		}
		cur.Set(it, v)
	}
	return cur
}

// verifyRepair re-executes the repaired history from the origin state and
// compares against the pruned state (the oracle of Theorem 5 and the
// closure restore).
func verifyRepair(hm *history.Augmented, rep *Report) error {
	aug, err := history.Run(rep.Repaired, hm.Origin)
	if err != nil {
		return fmt.Errorf("merge: verify: re-execute repaired: %w", err)
	}
	if !aug.Final().Equal(rep.RepairedState) {
		return fmt.Errorf("merge: verify: pruned state %s != re-executed state %s",
			rep.RepairedState, aug.Final())
	}
	return nil
}

func idsAt(hm *history.Augmented, set map[int]bool) []string {
	pos := make([]int, 0, len(set))
	for p := range set {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	ids := make([]string, len(pos))
	for i, p := range pos {
		ids[i] = hm.H.Txn(p).ID
	}
	return ids
}

func sortByOriginalOrder(ts []*tx.Transaction, hm *history.Augmented) {
	pos := make(map[*tx.Transaction]int, hm.H.Len())
	for i := 0; i < hm.H.Len(); i++ {
		pos[hm.H.Txn(i)] = i
	}
	sort.Slice(ts, func(i, j int) bool { return pos[ts[i]] < pos[ts[j]] })
}
