package replica

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// The correctness oracle (DESIGN.md, "Correctness oracle"). One seeded
// checker drives the same fleets through every in-process configuration —
// tier (one cluster, 4 shards) × store (in-memory, Disk) × deltas (on, off) ×
// origin (Strategy 2, 1) — in a serial and a concurrent arm, and checks the
// paper's properties against one reference: the one-cluster in-memory cell of
// the same deltas and origin in the serial arm, plus history.Run,
// merge.VerifyMerge and rewrite.CBTR. A finding names its cell, fleet, arm,
// reconnect and property; `go test -run 'TestOracle/<cell>'` reruns the
// cell. Under -short every cell runs fewer generated fleets.

const (
	propBaseBackout = "property 1 (no base back-out)"
	propAccounted   = "property 2 (saved+reprocessed+failed = |Hm|, each once)"
	propSerial      = "property 3 (serial equivalence)"
	propCBTR        = "property 4 (Thm 4: saved ⊇ CBTR)"
	propInvisible   = "property 5 (partition and engine invisibility)"
	propSomeOrder   = "property 6 (concurrent = some serial order)"
	propDurable     = "property 7 (acked ⇒ durable)"
	propExporters   = "property 8 (exporter parity)"
	propAdditive    = "property 9 (additive fleets)"
)

// oracleRound is one round of a fleet: each mobile's tentative
// transactions, the base transactions racing their reconnects, and the
// serial arm's order — a mobile index, or -1 for the next base transaction.
type oracleRound struct {
	tent  [][]*tx.Transaction
	base  []*tx.Transaction
	order []int
}

type oracleFleet struct {
	name   string
	seed   int64 // 0 for the fixed fleets
	origin model.State
	rounds []oracleRound
	// additive: every transaction commutes, so deltas on and off, merging
	// and reprocessing, serial and concurrent all reach one master.
	additive bool
	// counter: the contended counter, which delta merging saves whole.
	counter bool
}

// generatedFleet is 3 mobiles × 3 rounds × 3 tentative transactions plus 4
// base transactions per round over a small hot universe, so value, guarded
// and delta-pure transactions all meet.
func generatedFleet(seed int64) *oracleFleet {
	g := workload.NewGenerator(workload.Config{Seed: seed, Items: 16, HotItems: 4, PHot: 0.3, PCommutative: 0.3})
	f := &oracleFleet{name: fmt.Sprintf("seed%d", seed), seed: seed, origin: g.OriginState()}
	for r := 0; r < 3; r++ {
		rd := oracleRound{tent: make([][]*tx.Transaction, 3)}
		for k := 0; k < 9; k++ {
			rd.tent[k/3] = append(rd.tent[k/3], g.Txn(tx.Tentative))
		}
		for k := 0; k < 4; k++ {
			rd.base = append(rd.base, g.Txn(tx.Base))
		}
		rd.order = []int{0, 1, 2, -1, -1, -1, -1}
		g.Rand().Shuffle(len(rd.order), func(i, j int) { rd.order[i], rd.order[j] = rd.order[j], rd.order[i] })
		f.rounds = append(f.rounds, rd)
	}
	return f
}

// fixedFleets are the cases a generator reaches only by luck: the
// cross-shard cycle of shard_test.go over items the default router puts on
// shards 0 (a), 1 (z, v) and 2 (c) of four; a guarded transaction that is
// re-executed at the base and takes the branch its tentative run skipped,
// to an item (b, shard 1) Hm's run never touched; an additive fleet of
// deposits, withdrawals and transfers; and the contended counter.
func fixedFleets() []*oracleFleet {
	origin, tm, xy, _ := crossShardCycle("a", "z", "v", "c")
	cycle := &oracleFleet{name: "cycle", origin: origin,
		rounds: []oracleRound{{tent: [][]*tx.Transaction{{tm}}, base: xy, order: []int{-1, -1, 0}}}}
	branch := &oracleFleet{name: "branch", origin: model.StateOf(map[model.Item]model.Value{"a": 50, "b": 10}),
		rounds: []oracleRound{{order: []int{-1, 0}, base: []*tx.Transaction{workload.SetPrice("B", tx.Base, "a", 200)},
			tent: [][]*tx.Transaction{{
				workload.Deposit("T0", tx.Tentative, "a", 1),
				workload.Bonus("T1", tx.Tentative, "a", "b", 100, 5),
			}}}}}
	deposits := oracleRound{order: []int{-1, 0, 1, -1, 2}, base: []*tx.Transaction{
		workload.Deposit("B0", tx.Base, "s", 7),
		workload.Withdraw("B1", tx.Base, "a0", 3),
	}}
	counter := oracleRound{order: []int{0, 1, 2}}
	for i := 0; i < 3; i++ {
		id, acct, amt := fmt.Sprintf("T%d.", i), model.Item(fmt.Sprintf("a%d", i)), model.Value(1+i)
		deposits.tent = append(deposits.tent, []*tx.Transaction{
			workload.Deposit(id+"0", tx.Tentative, "s", amt),
			workload.Deposit(id+"1", tx.Tentative, acct, 5),
			workload.Transfer(id+"2", tx.Tentative, acct, "s", 2),
		})
		counter.tent = append(counter.tent, []*tx.Transaction{
			workload.Deposit(id+"0", tx.Tentative, "s", amt),
			workload.Deposit(id+"1", tx.Tentative, "s", amt),
			workload.Deposit(id+"2", tx.Tentative, acct, 5),
		})
	}
	return []*oracleFleet{cycle, branch,
		{name: "deposits", origin: fleetOrigin(), rounds: []oracleRound{deposits}, additive: true},
		{name: "counter", origin: fleetOrigin(), rounds: []oracleRound{counter}, additive: true, counter: true}}
}

// oracleCell is one configuration.
type oracleCell struct {
	sharded, disk, deltas bool
	origin                OriginStrategy
}

func (c oracleCell) String() string {
	name := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	return fmt.Sprintf("%s-%s-%s-%s", name(c.sharded, "4shards", "cluster"), name(c.disk, "disk", "memory"),
		name(c.deltas, "deltas", "values"), c.origin)
}

func (c oracleCell) config(o obs.Observer) Config {
	return Config{Origin: c.origin, Observer: o, MergeOptions: merge.Options{DisableDeltas: !c.deltas, Verify: true}}
}

// oracleTier is a *BaseCluster or a *ShardedBase.
type oracleTier interface {
	BaseTier
	AdvanceWindow() int
	WritePrometheus(w io.Writer) error
	CloseStore() error
}

// open builds c's tier over origin, or reopens a Disk cell's dir (origin
// nil).
func (c oracleCell) open(t *testing.T, dir string, origin model.State, o obs.Observer) (tier oracleTier) {
	t.Helper()
	var err error
	switch cfg := c.config(o); {
	case !c.disk && !c.sharded:
		tier = NewBaseCluster(origin, cfg)
	case !c.disk:
		tier = NewShardedBase(origin, 4, cfg)
	case !c.sharded:
		tier, _, err = OpenBase(dir, origin, cfg)
	default:
		tier, _, err = OpenShardedBase(dir, origin, 4, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func newMobiles(tier oracleTier, n int) []*MobileNode {
	ms := make([]*MobileNode, n)
	for i := range ms {
		if b, ok := tier.(*BaseCluster); ok {
			ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		} else {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), tier.(*ShardedBase))
		}
	}
	return ms
}

// play runs a round's tentative transactions, then its steps in order:
// step i reconnects mobile i, -1 commits the next base transaction.
func play(t *testing.T, tier BaseTier, ms []*MobileNode, rd oracleRound, order []int, reconnect func(*MobileNode)) {
	for i, txns := range rd.tent {
		for _, tt := range txns {
			if err := ms[i].Run(tt); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := rd.base
	for _, step := range order {
		if step >= 0 {
			reconnect(ms[step])
		} else {
			mustExecBase(t, tier, base[0])
			base = base[1:]
		}
	}
}

// oracleRun is what one arm did: the serial arm's per-reconnect outcomes and
// the final master.
type oracleRun struct {
	log    []string
	master model.State
}

// oracleArm drives one fleet through one cell in one arm: "serial",
// "concurrent", or "reprocess" (the serial order over Reprocess).
type oracleArm struct {
	t     *testing.T
	cell  oracleCell
	fleet *oracleFleet
	arm   string
	// additive, when set, is the master reprocessing reaches (property 9).
	additive model.State
}

func (a *oracleArm) failf(at, prop, format string, args ...any) {
	a.t.Helper()
	a.t.Errorf("%s %s %s %s: %s: %s", a.cell, a.fleet.name, a.arm, at, prop, fmt.Sprintf(format, args...))
}

// run plays the fleet. Every round after the first opens a new window and
// checks every mobile out again, so a round is determined by the master it
// starts from — what property 6 replays.
func (a *oracleArm) run() oracleRun {
	t, f := a.t, a.fleet
	tracer, metrics := obs.NewTracer(), obs.NewMetrics()
	dir := t.TempDir()
	tier := a.cell.open(t, dir, f.origin, obs.Multi(tracer, metrics))
	ms := newMobiles(tier, len(f.rounds[0].tent))
	var res oracleRun
	for r, rd := range f.rounds {
		if r > 0 {
			tier.AdvanceWindow()
			for _, m := range ms {
				m.Checkout()
			}
		}
		if a.arm == "serial" || a.arm == "reprocess" {
			play(t, tier, ms, rd, rd.order, func(m *MobileNode) { res.log = append(res.log, a.reconnect(tier, m, r)) })
			continue
		}
		start := tier.Master()
		play(t, tier, ms, rd, nil, nil)
		a.someSerialOrder(r, rd, start, a.race(tier, ms, r, rd), tier.Master())
	}
	if res.master = tier.Master(); a.additive != nil && !res.master.Equal(a.additive) {
		a.failf("end", propAdditive, "master %s, reprocessing reaches %s", res.master, a.additive)
	}
	a.checkCounters(tier, tracer, metrics)
	if a.cell.disk {
		if err := tier.CloseStore(); err != nil {
			t.Fatal(err)
		}
		reopened := a.cell.open(t, dir, nil, nil)
		if got := reopened.Master(); !got.Equal(res.master) {
			a.failf("reopen", propDurable, "master %s, acked %s", got, res.master)
		}
		reopened.CloseStore()
	}
	return res
}

// race reconnects every mobile at once while the round's base transactions
// commit in order on another goroutine, and returns the order the steps
// returned in — the likeliest serial order.
func (a *oracleArm) race(tier oracleTier, ms []*MobileNode, r int, rd oracleRound) []int {
	steps := make(chan int, len(ms)+len(rd.base))
	var wg sync.WaitGroup
	wg.Add(len(ms) + 1)
	go func() {
		defer wg.Done()
		for _, bt := range rd.base {
			if err := tier.ExecBase(bt); err != nil {
				a.failf(fmt.Sprintf("round %d %s", r, bt.ID), "exec", "%v", err)
			}
			steps <- -1
		}
	}()
	for i, m := range ms {
		go func() {
			defer wg.Done()
			a.reconnect(tier, m, r)
			steps <- i
		}()
	}
	wg.Wait()
	close(steps)
	var done []int
	for step := range steps {
		done = append(done, step)
	}
	return done
}

// reconnect reconciles m through the tier (every round checks out afresh)
// and checks the per-reconnect properties 1–4.
func (a *oracleArm) reconnect(tier oracleTier, m *MobileNode, r int) string {
	at := fmt.Sprintf("round %d %s", r, m.ID)
	hm, ck := m.Augmented(), m.ck
	var hb *history.Augmented
	if b, ok := tier.(*BaseCluster); ok && a.arm == "serial" {
		hb = a.baseHistory(at, b, ck)
	}
	var out *ConnectOutcome
	if a.arm == "reprocess" {
		out = tier.Reprocess(hm)
	} else {
		var err error
		if out, err = tier.Merge(ck, hm); err != nil {
			a.failf(at, "merge", "%v", err)
			return at
		}
	}
	ids := hm.H.IDs()
	for _, id := range out.BadIDs {
		if !slices.Contains(ids, id) {
			a.failf(at, propBaseBackout, "backed out %s, not a tentative transaction of %s", id, m.ID)
		}
	}
	if out.Saved+out.Reprocessed+out.Failed != hm.H.Len() {
		a.failf(at, propAccounted, "%d+%d+%d != %d", out.Saved, out.Reprocessed, out.Failed, hm.H.Len())
	}
	if rep := out.Report; rep != nil {
		accounted := slices.Clone(rep.SavedIDs)
		for _, t := range rep.Reexecute {
			accounted = append(accounted, t.ID)
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		if slices.Sort(accounted); !slices.Equal(accounted, want) {
			a.failf(at, propAccounted, "saved %v + re-executed %v is not Hm", rep.SavedIDs, rep.Reexecute)
		}
		a.checkCBTR(at, hm, rep)
		if hb != nil {
			a.checkSerial(at, hm, hb, ck.Origin, rep)
		}
	}
	return fmt.Sprintf("%s bad=%v saved=%d reprocessed=%d failed=%d fallback=%q",
		at, out.BadIDs, out.Saved, out.Reprocessed, out.Failed, out.Fallback)
}

// baseHistory is the base history a reconnect with token ck merges into:
// the window's entries from the checkout position on, run from the
// checkout origin. Every round checks out afresh, so ck is never stale.
func (a *oracleArm) baseHistory(at string, b *BaseCluster, ck Checkout) *history.Augmented {
	b.mu.Lock()
	entries := slices.Clone(b.entries[ck.Pos:])
	b.mu.Unlock()
	h := &history.History{}
	for _, e := range entries {
		h.Append(e.t)
	}
	hb, err := history.Run(h, ck.Origin)
	if err != nil {
		a.failf(at, propSerial, "base history does not run from the checkout origin: %v", err)
	}
	return hb
}

// checkSerial: the literal merge over the same base history decides what
// the indexed merge decided, and its merged history is final-state
// equivalent to a serial order of base and saved transactions.
// Options.Verify makes both merges re-run the repaired history against the
// pruned state too (Lemma 4, Thm 5).
func (a *oracleArm) checkSerial(at string, hm, hb *history.Augmented, origin model.State, rep *merge.Report) {
	lit, err := merge.Merge(hm, hb, a.cell.config(nil).MergeOptions)
	if err != nil {
		a.failf(at, propSerial, "literal merge: %v", err)
		return
	}
	if got, want := reportOutcome(rep), reportOutcome(lit); got != want {
		a.failf(at, propSerial, "indexed merge %s, literal merge %s", got, want)
	}
	if _, err := merge.VerifyMerge(lit, hm, hb, origin); err != nil {
		a.failf(at, propSerial, "%v", err)
	}
}

// checkCBTR: Algorithm 2 — the rewriter, since no fleet has blind writes —
// saves everything commutes-backward-through rewriting saves against the
// same back-out set.
func (a *oracleArm) checkCBTR(at string, hm *history.Augmented, rep *merge.Report) {
	bad := make(map[int]bool)
	for i, id := range hm.H.IDs() {
		bad[i] = slices.Contains(rep.BadIDs, id)
	}
	cb, err := rewrite.CBTR(hm, bad, rep.Options.Detector)
	if err != nil {
		a.failf(at, propCBTR, "%v", err)
		return
	}
	for _, id := range cb.SavedIDs() {
		if !slices.Contains(rep.SavedIDs, id) {
			a.failf(at, propCBTR, "CBTR saves %s, the merge saved %v", id, rep.SavedIDs)
		}
	}
}

// someSerialOrder: the master a concurrent round ended on is the master of
// some serial order of its steps from the master it started on, replayed on
// the reference cell. Orders are tried nearest the completion order first.
func (a *oracleArm) someSerialOrder(r int, rd oracleRound, start model.State, done []int, got model.State) {
	cfg := oracleCell{deltas: a.cell.deltas, origin: a.cell.origin}.config(nil)
	cfg.MergeOptions.Verify = false
	distance := func(order []int) (d int) {
		for i := range order {
			if order[i] != done[i] {
				d++
			}
		}
		return d
	}
	orders := interleavings(slices.DeleteFunc(slices.Clone(rd.order), func(step int) bool { return step < 0 }), len(rd.base))
	slices.SortStableFunc(orders, func(x, y []int) int { return distance(x) - distance(y) })
	for _, order := range orders {
		b := NewBaseCluster(start, cfg)
		play(a.t, b, newMobiles(b, len(rd.tent)), rd, order, func(m *MobileNode) {
			if _, err := b.Merge(m.ck, m.Augmented()); err != nil {
				a.t.Fatal(err)
			}
		})
		if b.Master().Equal(got) {
			return
		}
	}
	a.failf(fmt.Sprintf("round %d", r), propSomeOrder, "master %s matches no serial order (completion order %v)", got, done)
}

// interleavings is every order of the given mobiles, each once, among k
// base steps (-1).
func interleavings(mobiles []int, k int) [][]int {
	if len(mobiles)+k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	if k > 0 {
		for _, rest := range interleavings(mobiles, k-1) {
			out = append(out, append([]int{-1}, rest...))
		}
	}
	for i, m := range mobiles {
		for _, rest := range interleavings(slices.Delete(slices.Clone(mobiles), i, i+1), k) {
			out = append(out, append([]int{m}, rest...))
		}
	}
	return out
}

// checkCounters: every exporter agrees with cost.Counters — the Prometheus
// tiermerge_cost_* series, the event-folded registry and the raw event
// stream — and the delta counters fit the fleet (property 9).
func (a *oracleArm) checkCounters(tier oracleTier, tracer *obs.Tracer, metrics *obs.Metrics) {
	var c cost.Counts
	if b, ok := tier.(*BaseCluster); ok {
		c = b.Counters().Snapshot()
	} else {
		c = tier.(*ShardedBase).Counters()
	}
	var dump strings.Builder
	if err := tier.WritePrometheus(&dump); err != nil {
		a.failf("end", propExporters, "%v", err)
	}
	fields := 0
	c.Each(func(name string, v int64) {
		fields++
		if series := fmt.Sprintf("\ntiermerge_cost_%s_total %d\n", name, v); !strings.Contains(dump.String(), series) {
			a.failf("end", propExporters, "Prometheus dump lacks %q", series[1:])
		}
	})
	if n := strings.Count(dump.String(), " counter\ntiermerge_cost_"); n != fields {
		a.failf("end", propExporters, "Prometheus dump has %d cost series for %d counters", n, fields)
	}
	reg := metrics.Registry().Snapshot().Counters
	var fallbacks, merges, saved, reexec int64
	for name, v := range reg {
		if strings.HasPrefix(name, obs.MetricFallbacks) {
			fallbacks += v
		}
	}
	for _, ev := range tracer.Events() {
		if ev.Phase == obs.PhaseMerge {
			merges++
			saved += int64(ev.Saved)
		}
		if ev.Phase == obs.PhaseMerge || ev.Phase == obs.PhaseReprocess {
			reexec += int64(ev.Reexecuted + ev.Failed)
		}
	}
	reconnects := c.MergesPerformed + c.MergeFallbacks
	got := []int64{reg[obs.MetricSaved], reg[obs.MetricMerges], fallbacks,
		reg[obs.MetricReexecuted] + reg[obs.MetricFailed], merges, saved, reexec, c.AdmitBatches}
	if exp := []int64{c.TxnsSaved, reconnects, c.MergeFallbacks, c.TxnsReprocessed,
		reconnects, c.TxnsSaved, c.TxnsReprocessed, reconnects}; !slices.Equal(got, exp) {
		a.failf("end", propExporters, "registry saved/merges/fallbacks/re-executed, events "+
			"merges/saved/re-executed, admissions = %v, counters say %v", got, exp)
	}
	switch {
	case !a.cell.deltas && c.EdgesElided+c.DeltaFolded != 0:
		a.failf("end", propAdditive, "deltas off, yet %d edges elided, %d deltas folded", c.EdgesElided, c.DeltaFolded)
	case !a.fleet.counter || a.arm == "reprocess":
	case a.cell.deltas && (c.TxnsBackedOut != 0 || c.EdgesElided == 0 || c.DeltaFolded == 0 ||
		a.cell.origin == Strategy2 && c.MergeFallbacks != 0):
		a.failf("end", propAdditive, "the counter: %d backed out, %d fallbacks, %d edges elided, %d deltas folded",
			c.TxnsBackedOut, c.MergeFallbacks, c.EdgesElided, c.DeltaFolded)
	case !a.cell.deltas && c.TxnsBackedOut == 0:
		a.failf("end", propAdditive, "value merging backed nothing out: the counter is not contended")
	}
}

// TestOracle checks properties 1–9 in all 16 cells, both arms.
func TestOracle(t *testing.T) {
	// A merge over its footprint's shards alone got seed 170 wrong in every
	// 4-shard in-memory cell. Disk cells, which fsync every commit, run the
	// fixed fleets and the first seeds only.
	seeds, diskSeeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 170}, int64(2)
	if testing.Short() {
		seeds, diskSeeds = []int64{1, 2, 170}, 1
	}
	fleets := fixedFleets()
	for _, seed := range seeds {
		fleets = append(fleets, generatedFleet(seed))
	}
	additive := make(map[*oracleFleet]model.State)
	for _, f := range fleets {
		if f.additive {
			additive[f] = (&oracleArm{t: t, cell: oracleCell{deltas: true}, fleet: f, arm: "reprocess"}).run().master
		}
	}
	for _, deltas := range []bool{true, false} {
		for _, origin := range []OriginStrategy{Strategy2, Strategy1} {
			refs := make(map[*oracleFleet]oracleRun)
			for _, f := range fleets {
				refs[f] = (&oracleArm{t: t, cell: oracleCell{deltas: deltas, origin: origin}, fleet: f, arm: "serial"}).run()
			}
			for _, cell := range []oracleCell{{}, {disk: true}, {sharded: true}, {sharded: true, disk: true}} {
				cell.deltas, cell.origin = deltas, origin
				t.Run(cell.String(), func(t *testing.T) {
					for _, f := range fleets {
						if cell.disk && f.seed > diskSeeds {
							continue
						}
						serial := (&oracleArm{t: t, cell: cell, fleet: f, arm: "serial", additive: additive[f]}).run()
						if ref := refs[f]; !slices.Equal(serial.log, ref.log) || !serial.master.Equal(ref.master) {
							t.Errorf("%s %s serial: %s:\n%s\nmaster %s\nreference:\n%s\nmaster %s", cell, f.name, propInvisible,
								strings.Join(serial.log, "\n"), serial.master, strings.Join(ref.log, "\n"), ref.master)
						}
						(&oracleArm{t: t, cell: cell, fleet: f, arm: "concurrent", additive: additive[f]}).run()
					}
				})
			}
		}
	}
}
