// Crash-recovery soak: kill a node at every point a disconnection period
// can die, recover it from its journal, and prove the recovered world is
// the one the protocol acknowledged. The sweep is exhaustive and
// deterministic — every kill point (each record boundary, each byte offset,
// with and without a torn trailing fragment) is enumerated from the
// reference journal, so a failure replays from its parameters alone
// (DESIGN.md §10).
package sim

import (
	"bytes"
	"fmt"
	"sort"

	"tiermerge/internal/cost"
	"tiermerge/internal/fault"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// CrashSweep configures one exhaustive kill-point sweep: a single mobile
// node journals one disconnection period through a fault.CrashWriter while
// base traffic commits behind its back; the sweep then replays the period
// once per kill point, crashing at that point, recovering with
// RecoverMobileNode, re-establishing the journal, finishing the period,
// crashing a second time, and reconnecting the re-recovered node. Two
// invariants are asserted at every kill point:
//
//   - no lost acknowledged commit: the recovery reports exactly the
//     transactions whose commit records persisted whole, and
//   - serial-order equivalence: after the recovered node finishes the
//     period and reconnects, the master state equals the no-crash run's.
type CrashSweep struct {
	// Seed drives the workload generators.
	Seed int64
	// Txns is the tentative-transaction count of the period (default 4).
	Txns int
	// BaseTxns is the base traffic committed during the period (default 6).
	BaseTxns int
	// Items is the database universe size (default 16 — kept small so the
	// byte-granular sweep stays cheap).
	Items int
	// PCommutative is the additive workload fraction (default 0.6).
	PCommutative float64
	// TornTailBytes is the torn-fragment length of the "torn" variant of
	// each kill point (default 5; the crash writer never lets a fragment
	// complete its record).
	TornTailBytes int
	// Protocol selects how recovered nodes reconcile (default Merging).
	Protocol Protocol
	// SkipByteSweep disables the byte-granular truncation sweep and runs
	// only the record-boundary kill points.
	SkipByteSweep bool
	// Observer receives the PhaseRecover (and reconnect) events every trial
	// emits; nil observes nothing.
	Observer obs.Observer
}

func (cs CrashSweep) withDefaults() CrashSweep {
	if cs.Txns == 0 {
		cs.Txns = 4
	}
	if cs.BaseTxns == 0 {
		cs.BaseTxns = 6
	}
	if cs.Items == 0 {
		cs.Items = 16
	}
	if cs.PCommutative == 0 {
		cs.PCommutative = 0.6
	}
	if cs.TornTailBytes == 0 {
		cs.TornTailBytes = 5
	}
	if cs.Protocol == 0 {
		cs.Protocol = Merging
	}
	return cs
}

// CrashSweepResult tallies what a sweep exercised. Invariant violations are
// errors, not result fields — a returned result means every kill point
// recovered correctly.
type CrashSweepResult struct {
	// Records is the reference journal's record count (the number of
	// record-boundary kill points).
	Records int
	// KillPoints counts record-boundary trials run (clean and torn).
	KillPoints int
	// ByteKillPoints counts byte-granular truncation trials run.
	ByteKillPoints int
	// Recoveries counts successful journal recoveries across all trials.
	Recoveries int
	// TornTails counts recoveries that dropped a torn trailing fragment —
	// the only crash damage a journal can carry, since a transaction is in
	// it exactly when its commit record is whole. Each transaction a torn
	// record held is re-run after recovery, never silently lost.
	TornTails int
	// RecordsReplayed sums journal records replayed across recoveries.
	RecordsReplayed int64
}

func (r *CrashSweepResult) String() string {
	return fmt.Sprintf("crash sweep: %d records, %d kill points (+%d byte-granular), %d recoveries, %d torn tails, %d records replayed",
		r.Records, r.KillPoints, r.ByteKillPoints, r.Recoveries, r.TornTails, r.RecordsReplayed)
}

// RunCrashSweep sweeps every kill point of a mobile node's disconnection
// period. See CrashSweep for the invariants asserted.
func RunCrashSweep(cs CrashSweep) (*CrashSweepResult, error) {
	cs = cs.withDefaults()
	tents := sweepTentatives(cs)
	baseTxns := sweepBaseTxns(cs)

	// Reference run: the same period with no crash. Its master state is the
	// serial-order-equivalence oracle and its journal bytes define the kill
	// points.
	refCluster := sweepCluster(cs)
	refNode := replica.NewMobileNode("m1", refCluster)
	var refJournal bytes.Buffer
	if err := refNode.AttachJournal(&refJournal); err != nil {
		return nil, fmt.Errorf("sim: crash sweep: %w", err)
	}
	if err := sweepPeriod(refCluster, refNode, baseTxns, tents); err != nil {
		return nil, fmt.Errorf("sim: crash sweep reference: %w", err)
	}
	full := append([]byte(nil), refJournal.Bytes()...)
	if _, err := sweepConnect(cs, refNode, refCluster); err != nil {
		return nil, fmt.Errorf("sim: crash sweep reference connect: %w", err)
	}
	refMaster := refCluster.Master()

	res, err := sweepJournal(cs, full, func(res *CrashSweepResult, want, k, torn int) error {
		return runMobileTrial(cs, res, tents, baseTxns, want, refMaster, k, torn)
	}, func(data []byte) (*replica.Recovery, error) {
		_, rep, err := replica.RecoverMobileNode("m1", bytes.NewReader(data))
		return rep, err
	})
	if err != nil {
		return nil, fmt.Errorf("sim: crash sweep: %w", err)
	}
	return res, nil
}

// runMobileTrial replays the period against a crash writer that dies after
// k records (persisting torn extra bytes of the first suppressed one),
// recovers, finishes the period under a fresh journal, crashes a second
// time, re-recovers, reconnects and checks every invariant.
func runMobileTrial(cs CrashSweep, res *CrashSweepResult, tents, baseTxns []*tx.Transaction,
	want int, refMaster model.State, k, torn int) error {
	cluster := sweepCluster(cs)
	m := replica.NewMobileNode("m1", cluster)
	cw := fault.NewCrashWriter(fault.Plan{KillAfterRecords: k, TornTailBytes: torn})
	if err := m.AttachJournal(cw); err != nil {
		return err
	}
	// The period runs to completion from the application's point of view —
	// the crash writer is the page cache that never made it to disk.
	if err := sweepPeriod(cluster, m, baseTxns, tents); err != nil {
		return err
	}
	if !cw.Killed() {
		return fmt.Errorf("crash writer never reached its kill point")
	}

	// Crash: m is gone; only cw.Persisted() survives.
	rec, rep, err := replica.RecoverMobileNode("m1", bytes.NewReader(cw.Persisted()))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := res.tally(rep, want, torn > 0); err != nil {
		return err
	}

	// Re-establish durability and finish the period: the transaction whose
	// commit record tore (never acknowledged) and everything after it
	// re-run.
	var rejournal bytes.Buffer
	if err := rec.AttachJournal(&rejournal); err != nil {
		return fmt.Errorf("rejournal: %w", err)
	}
	for _, t := range tents[rep.Committed:] {
		if err := rec.Run(t); err != nil {
			return fmt.Errorf("rerun %s: %w", t.ID, err)
		}
	}

	// Second crash: the re-attached journal must be complete on its own
	// (AttachJournal re-journals the replayed prefix).
	rec2, rep2, err := replica.RecoverMobileNode("m1", bytes.NewReader(rejournal.Bytes()))
	if err != nil {
		return fmt.Errorf("second recover: %w", err)
	}
	res.Recoveries++
	res.RecordsReplayed += int64(rep2.Records)
	if rep2.Committed != len(tents) {
		return fmt.Errorf("second recovery has %d committed txns, want the full period (%d)", rep2.Committed, len(tents))
	}

	// Reconnect: the re-recovered node reconciles exactly as the lost one
	// would have.
	if _, err := sweepConnect(cs, rec2, cluster); err != nil {
		return fmt.Errorf("reconnect: %w", err)
	}
	if got := cluster.Master(); !got.Equal(refMaster) {
		return fmt.Errorf("master diverged after recovery: %s != %s", got, refMaster)
	}
	snap := cluster.Counters().Snapshot()
	if snap.Recoveries != 1 {
		return fmt.Errorf("cluster charged %d recoveries, want 1 (only the bound node's)", snap.Recoveries)
	}
	if snap.WalRecordsReplayed != int64(rep2.Records) {
		return fmt.Errorf("cluster charged %d replayed records, want %d", snap.WalRecordsReplayed, rep2.Records)
	}
	return nil
}

// RunBaseCrashSweep is the base-tier counterpart: the cluster journals its
// day (base commits and a mid-day window advance) through a crash writer;
// every kill point is recovered with RecoverBaseCluster, the recovered
// tier commits the rest of the day, and the final master must equal the
// no-crash run's.
func RunBaseCrashSweep(cs CrashSweep) (*CrashSweepResult, error) {
	cs = cs.withDefaults()
	baseTxns := sweepBaseTxns(cs)
	advanceAt := cs.BaseTxns / 2

	// Reference run: no crash. The journal is kept record by record, the
	// way each trial re-writes it.
	refCluster := sweepCluster(cs)
	refJournal := fault.NewCrashWriter(fault.Plan{})
	if err := refCluster.AttachJournal(refJournal); err != nil {
		return nil, fmt.Errorf("sim: base crash sweep: %w", err)
	}
	if err := sweepBaseDay(refCluster, baseTxns, advanceAt); err != nil {
		return nil, fmt.Errorf("sim: base crash sweep reference: %w", err)
	}
	recs := refJournal.Records()
	refMaster := refCluster.Master()

	cfg := replica.Config{Weights: cost.DefaultWeights(), Observer: cs.Observer}
	res, err := sweepJournal(cs, bytes.Join(recs, nil), func(res *CrashSweepResult, want, k, torn int) error {
		return runBaseTrial(res, cfg, baseTxns, want, refMaster, recs, k, torn)
	}, func(data []byte) (*replica.Recovery, error) {
		_, rep, err := replica.RecoverBaseCluster(bytes.NewReader(data), cfg)
		return rep, err
	})
	if err != nil {
		return nil, fmt.Errorf("sim: base crash sweep: %w", err)
	}
	return res, nil
}

// runBaseTrial recovers the base tier from the journal prefix a crash at
// kill point k leaves behind, then has the recovered tier commit the rest
// of the day and checks it converges on the reference master.
func runBaseTrial(res *CrashSweepResult, cfg replica.Config, baseTxns []*tx.Transaction,
	want int, refMaster model.State, recs [][]byte, k, torn int) error {
	cw := fault.NewCrashWriter(fault.Plan{KillAfterRecords: k, TornTailBytes: torn})
	for _, r := range recs {
		if _, err := cw.Write(r); err != nil {
			return err
		}
	}
	b, rep, err := replica.RecoverBaseCluster(bytes.NewReader(cw.Persisted()), cfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := res.tally(rep, want, torn > 0); err != nil {
		return err
	}
	snap := b.Counters().Snapshot()
	if snap.Recoveries != 1 || snap.WalRecordsReplayed != int64(rep.Records) {
		return fmt.Errorf("recovered cluster charged recoveries=%d replayed=%d, want 1/%d",
			snap.Recoveries, snap.WalRecordsReplayed, rep.Records)
	}

	// The recovered tier must be live, not a snapshot: the rest of the day
	// (including the transaction whose commit record tore, which its client
	// retries) commits on it and converges on the reference master.
	for _, t := range baseTxns[rep.Committed:] {
		if err := b.ExecBase(t); err != nil {
			return fmt.Errorf("resume %s: %w", t.ID, err)
		}
	}
	if got := b.Master(); !got.Equal(refMaster) {
		return fmt.Errorf("master diverged after recovery: %s != %s", got, refMaster)
	}
	return nil
}

// sweepJournal runs every kill point of a reference journal: trial at each
// record boundary k, clean and with a torn fragment of record k+1, then —
// unless the sweep skips it — recover at every byte offset (sweepBytes),
// asserting each image recovers the committed prefix of the records it
// keeps. Images that keep no complete checkout record must be refused.
func sweepJournal(cs CrashSweep, full []byte, trial func(res *CrashSweepResult, want, k, torn int) error,
	recover func([]byte) (*replica.Recovery, error)) (*CrashSweepResult, error) {
	scanned, err := wal.ScanBytes(full, wal.Strict)
	if err != nil {
		return nil, fmt.Errorf("reference journal: %w", err)
	}
	acks, err := acksOf(scanned.Records)
	if err != nil {
		return nil, fmt.Errorf("reference journal: %w", err)
	}
	res := &CrashSweepResult{Records: len(scanned.Records)}
	// An empty journal (killed before the checkout record persisted) is not
	// a recoverable image; recovery must refuse it, not fabricate a node.
	if _, err := recover(nil); err == nil {
		return nil, fmt.Errorf("recovery accepted an empty journal")
	}
	err = res.sweepRecords(1, len(scanned.Records), cs.TornTailBytes, func(k, torn int) error {
		return trial(res, acks[k], k, torn)
	})
	if err != nil || cs.SkipByteSweep {
		return res, err
	}
	return res, sweepBytes(scanned.Ends, func(cut int64, seen int, torn bool) error {
		rep, err := recover(full[:cut])
		if seen == 0 {
			if err == nil {
				return fmt.Errorf("recovery accepted a journal with no checkout record")
			}
			return nil
		}
		if err != nil {
			return err
		}
		res.ByteKillPoints++
		return res.tally(rep, acks[seen], torn)
	})
}

// sweepRecords runs trial at every record-boundary kill point of a journal
// of n records, from first on — after k records, clean and with a torn
// fragment (tornBytes) of record k+1 — and counts each as a kill point.
func (res *CrashSweepResult) sweepRecords(first, n, tornBytes int, trial func(k, torn int) error) error {
	for k := first; k <= n; k++ {
		for _, torn := range []int{0, tornBytes} {
			if torn > 0 && k == n {
				continue // no suppressed record left to tear
			}
			if err := trial(k, torn); err != nil {
				return fmt.Errorf("kill after %d records (torn %d): %w", k, torn, err)
			}
			res.KillPoints++
		}
	}
	return nil
}

// sweepBytes cuts a journal image at every byte offset and runs trial on
// each cut, classified by the image's record ends (wal.ScanResult.Ends):
// seen counts the records the cut keeps whole, and torn reports a fragment
// of the next record trailing them — a frame cut short, which recovery
// must drop.
func sweepBytes(ends []int64, trial func(cut int64, seen int, torn bool) error) error {
	if len(ends) == 0 {
		return nil
	}
	for cut := int64(1); cut <= ends[len(ends)-1]; cut++ {
		seen := sort.Search(len(ends), func(i int) bool { return ends[i] > cut })
		torn := seen == 0 || cut != ends[seen-1]
		if err := trial(cut, seen, torn); err != nil {
			return fmt.Errorf("truncate at byte %d: %w", cut, err)
		}
	}
	return nil
}

// acksOf decodes every record prefix of a checkout-led reference journal:
// acks[k] is the number of transactions its first k records committed.
func acksOf(recs []wal.Record) ([]int, error) {
	if _, _, err := wal.SplitCheckout(recs); err != nil {
		return nil, err
	}
	acks := make([]int, len(recs)+1)
	for k := 2; k <= len(recs); k++ {
		groups, err := wal.Groups(recs[k-1 : k])
		if err != nil {
			return nil, err
		}
		acks[k] = acks[k-1]
		for _, g := range groups {
			if g.Txn != nil {
				acks[k]++
			}
		}
	}
	return acks, nil
}

// tally checks a kill-point recovery against what the persisted journal
// prefix acknowledged — every committed transaction restored, a tear
// reported (and its record's transactions dropped) exactly when a fragment
// trailed the prefix — and adds it to the sweep's tallies.
func (res *CrashSweepResult) tally(rep *replica.Recovery, want int, torn bool) error {
	if rep.Committed != want {
		return fmt.Errorf("recovered %d committed txns, journal prefix acknowledged %d", rep.Committed, want)
	}
	if rep.TornTail != torn {
		return fmt.Errorf("recovery torn=%v, want %v", rep.TornTail, torn)
	}
	res.Recoveries++
	res.RecordsReplayed += int64(rep.Records)
	if rep.TornTail {
		res.TornTails++
	}
	return nil
}

// sweepOrigin derives the deterministic origin state every trial's base
// tier starts from.
func sweepOrigin(cs CrashSweep) model.State {
	gen := workload.NewGenerator(workload.Config{
		Seed: cs.Seed*31 + 7, Items: cs.Items, PCommutative: cs.PCommutative,
	})
	return gen.OriginState()
}

// sweepCluster builds the deterministic base tier every trial starts from.
func sweepCluster(cs CrashSweep) *replica.BaseCluster {
	return replica.NewBaseCluster(sweepOrigin(cs), replica.Config{
		Weights:  cost.DefaultWeights(),
		Observer: cs.Observer,
	})
}

// sweepTentatives generates the period's tentative transactions once; every
// trial replays the same pointers in the same order.
func sweepTentatives(cs CrashSweep) []*tx.Transaction {
	gen := workload.NewGenerator(workload.Config{
		Seed: cs.Seed + 1, Items: cs.Items, PCommutative: cs.PCommutative,
	})
	out := make([]*tx.Transaction, cs.Txns)
	for i := range out {
		out[i] = gen.Txn(tx.Tentative)
	}
	return out
}

// sweepBaseTxns generates the base traffic committed during the period.
func sweepBaseTxns(cs CrashSweep) []*tx.Transaction {
	out := make([]*tx.Transaction, cs.BaseTxns)
	for k := range out {
		gen := workload.NewGenerator(workload.Config{
			Seed: cs.Seed*1000003 + int64(k), Items: cs.Items, PCommutative: cs.PCommutative,
		})
		t := gen.Txn(tx.Base)
		t.ID = fmt.Sprintf("Tb%d", k)
		out[k] = t
	}
	return out
}

// sweepPeriod runs one disconnection period: the base commits its traffic
// while the mobile runs its tentative batch.
func sweepPeriod(cluster *replica.BaseCluster, m *replica.MobileNode, baseTxns, tents []*tx.Transaction) error {
	for _, t := range baseTxns {
		if err := cluster.ExecBase(t); err != nil {
			return err
		}
	}
	for _, t := range tents {
		if err := m.Run(t); err != nil {
			return err
		}
	}
	return nil
}

// sweepBaseDay commits the base traffic with a window advance midway.
func sweepBaseDay(cluster *replica.BaseCluster, baseTxns []*tx.Transaction, advanceAt int) error {
	for j, t := range baseTxns {
		if j == advanceAt && j > 0 {
			cluster.AdvanceWindow()
		}
		if err := cluster.ExecBase(t); err != nil {
			return err
		}
	}
	return nil
}

// sweepConnect reconciles via the sweep's protocol. Bind hands
// journal-recovered nodes their cluster; already-bound nodes take it too
// (it must then match), so one call shape serves both.
func sweepConnect(cs CrashSweep, m *replica.MobileNode, cluster *replica.BaseCluster) (*replica.ConnectOutcome, error) {
	if err := m.Bind(cluster); err != nil {
		return nil, err
	}
	if cs.Protocol == Reprocessing {
		return m.ConnectReprocess(), nil
	}
	return m.ConnectMerge()
}
