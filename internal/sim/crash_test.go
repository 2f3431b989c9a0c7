package sim

import (
	"bytes"
	"errors"
	"testing"

	"tiermerge/internal/fault"
	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
	"tiermerge/internal/wal"
)

// TestCrashSweepMerging kills a merging mobile at every record boundary and
// byte offset of a disconnection period; every kill point must recover the
// acknowledged prefix exactly and reconverge on the no-crash master.
func TestCrashSweepMerging(t *testing.T) {
	res, err := RunCrashSweep(CrashSweep{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.KillPoints == 0 || res.ByteKillPoints == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
	// The sweep must have hit the interesting case: torn final records,
	// not just clean boundaries.
	if res.TornTails == 0 {
		t.Errorf("no torn tails exercised: %s", res)
	}
	if res.Recoveries == 0 || res.RecordsReplayed == 0 {
		t.Errorf("no recoveries performed: %s", res)
	}
}

// TestCrashSweepReprocessing runs the record-boundary sweep under the
// original reprocess-everything protocol: recovery must be protocol-blind.
func TestCrashSweepReprocessing(t *testing.T) {
	res, err := RunCrashSweep(CrashSweep{Seed: 2, Protocol: Reprocessing, SkipByteSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.KillPoints == 0 || res.TornTails == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
}

// TestBaseCrashSweep gives the base tier's journal the same treatment: the
// recovered cluster must hold exactly the acknowledged commits (across a
// window advance) and stay live for the rest of the day.
func TestBaseCrashSweep(t *testing.T) {
	res, err := RunBaseCrashSweep(CrashSweep{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.KillPoints == 0 || res.ByteKillPoints == 0 || res.TornTails == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
}

// TestCrashSweepRejectsInteriorDamage confirms the sweep's recovery path
// refuses damage a crash cannot produce: dropped, duplicated or bit-rotted
// interior records must be wal.ErrCorrupt, never a silent truncation.
func TestCrashSweepRejectsInteriorDamage(t *testing.T) {
	cs := CrashSweep{Seed: 4}.withDefaults()
	cluster := sweepCluster(cs)
	m := replica.NewMobileNode("m1", cluster)
	journal := fault.NewCrashWriter(fault.Plan{})
	if err := m.AttachJournal(journal); err != nil {
		t.Fatal(err)
	}
	if err := sweepPeriod(cluster, m, sweepBaseTxns(cs), sweepTentatives(cs)); err != nil {
		t.Fatal(err)
	}
	full := journal.Records()
	for _, mut := range []fault.Mutation{
		{Op: fault.DropRecord, Arg: 2},
		{Op: fault.DuplicateRecord, Arg: 2},
		{Op: fault.FlipBit, Arg: 8 * int64(len(full[0])+3)},
	} {
		if _, _, err := replica.RecoverMobileNode("m1", bytes.NewReader(fault.Mutate(full, mut))); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: recovery returned %v, want wal.ErrCorrupt", mut.Op, err)
		}
	}
}

// TestCrashSweepEmitsRecoverEvents wires a tracer through the sweep and
// checks crash recoveries surface as PhaseRecover spans with their own
// merge sequence numbers (what `tiermerge trace` renders).
func TestCrashSweepEmitsRecoverEvents(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := RunCrashSweep(CrashSweep{Seed: 5, SkipByteSweep: true, Observer: tr}); err != nil {
		t.Fatal(err)
	}
	recovers := 0
	torn := 0
	for _, ev := range tr.Events() {
		if ev.Phase != obs.PhaseRecover {
			continue
		}
		recovers++
		if ev.Seq == 0 {
			t.Fatalf("recover event without a merge sequence number: %+v", ev)
		}
		if ev.Replayed == 0 {
			t.Fatalf("recover event with no replayed records: %+v", ev)
		}
		if ev.Cause == obs.CauseTornTail {
			torn++
		}
	}
	// One bound recovery per record-boundary kill point (the second,
	// connecting recovery of each trial; the first never binds).
	if recovers == 0 {
		t.Fatal("no PhaseRecover events observed")
	}
	if torn != 0 {
		// The connecting recovery reads the re-attached journal, which is
		// never torn; torn tails belong to the first, unbound recovery.
		t.Errorf("%d torn-tail recover events from pristine re-journals", torn)
	}
}

// TestRecoveryTraceOutcome drives one crash through a dedicated tracer (a
// tracer is per-cluster: merge sequence numbers from different clusters
// collide) and checks the recovery shows up as its own trace group with
// outcome "recovered".
func TestRecoveryTraceOutcome(t *testing.T) {
	cs := CrashSweep{Seed: 7, Observer: obs.NewTracer()}.withDefaults()
	tr := cs.Observer.(*obs.Tracer)
	cluster := sweepCluster(cs)
	m := replica.NewMobileNode("m1", cluster)
	cw := fault.NewCrashWriter(fault.Plan{KillAfterRecords: 3, TornTailBytes: 4})
	if err := m.AttachJournal(cw); err != nil {
		t.Fatal(err)
	}
	if err := sweepPeriod(cluster, m, sweepBaseTxns(cs), sweepTentatives(cs)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := replica.RecoverMobileNode("m1", bytes.NewReader(cw.Persisted()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Bind(cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	for _, mt := range tr.Merges() {
		outcomes = append(outcomes, mt.Outcome())
	}
	if len(outcomes) < 2 || outcomes[0] != "recovered" {
		t.Fatalf("trace outcomes = %v, want a leading \"recovered\" group", outcomes)
	}
}

// TestCrashScenarioStillRecovers keeps the Scenario-level PCrash path (used
// by E8/E14 and the soak) honest end to end under the hardened recovery.
func TestCrashScenarioStillRecovers(t *testing.T) {
	res, err := Run(Scenario{Seed: 6, Mobiles: 3, Rounds: 4, PCrash: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("PCrash=1 produced no crashes")
	}
	if res.Counts.Recoveries == 0 || res.Counts.WalRecordsReplayed == 0 {
		t.Fatalf("crash recoveries not charged to counters: %+v", res.Counts)
	}
}

// TestCrashSweepDeltaJournal sweeps every kill point of a period whose
// workload is entirely commutative: every journaled write carries a Delta
// annotation, so each recovery replays delta records, re-derives the
// classification, and the recovered reconnect merges through the
// delta-elision path. Any disagreement between the logged deltas and the
// replayed execution fails the sweep as corruption.
func TestCrashSweepDeltaJournal(t *testing.T) {
	res, err := RunCrashSweep(CrashSweep{Seed: 5, PCommutative: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.KillPoints == 0 || res.Recoveries == 0 || res.RecordsReplayed == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
	if res.TornTails == 0 {
		t.Errorf("delta sweep missed torn tails: %s", res)
	}
}
