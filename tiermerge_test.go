package tiermerge_test

import (
	"bytes"
	"testing"

	"tiermerge"
)

// TestQuickstart is the README example, verified.
func TestQuickstart(t *testing.T) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	m := tiermerge.NewMobileNode("m1", base)
	if err := m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "acct", 25)); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Saved != 1 {
		t.Errorf("saved = %d, want 1", out.Saved)
	}
	if got := base.Master().Get("acct"); got != 125 {
		t.Errorf("acct = %d, want 125", got)
	}
}

// TestPublicMergePipeline drives the lower-level protocol stages through
// the facade only.
func TestPublicMergePipeline(t *testing.T) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 10, "y": 20})
	tm := tiermerge.MustNewTransaction("Tm1", tiermerge.Tentative,
		tiermerge.Update("x", tiermerge.Add(tiermerge.Var("x"), tiermerge.Const(1))),
	)
	tb := tiermerge.MustNewTransaction("Tb1", tiermerge.Base,
		tiermerge.Update("x", tiermerge.Mul(tiermerge.Var("x"), tiermerge.Const(2))),
	)
	hm, err := tiermerge.RunHistory(tiermerge.NewHistory(tm), origin)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := tiermerge.RunHistory(tiermerge.NewHistory(tb), origin)
	if err != nil {
		t.Fatal(err)
	}
	g := tiermerge.BuildGraph(hm, hb)
	if g.Acyclic(nil) {
		t.Fatal("write-write conflict must cycle")
	}
	rep, err := tiermerge.Merge(hm, hb, tiermerge.MergeOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadIDs) != 1 || rep.BadIDs[0] != "Tm1" {
		t.Errorf("B = %v", rep.BadIDs)
	}
	if _, err := tiermerge.VerifyMerge(rep, hm, hb, origin); err != nil {
		t.Error(err)
	}
}

// TestPublicScenario runs a simulation through the facade.
func TestPublicScenario(t *testing.T) {
	res, err := tiermerge.RunScenario(tiermerge.Scenario{
		Seed: 2, Mobiles: 3, Rounds: 2, TxnsPerRound: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TentativeRun != 18 {
		t.Errorf("tentative run = %d, want 18", res.TentativeRun)
	}
	if res.Counts.MergesPerformed == 0 {
		t.Error("no merges happened")
	}
	if res.Cost.Total() <= 0 {
		t.Error("no cost accounted")
	}
}

// TestPublicWALRecovery exercises the journal surface.
func TestPublicWALRecovery(t *testing.T) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 5})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	m := tiermerge.NewMobileNode("m1", base)
	var journal bytes.Buffer
	if err := m.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "x", 3)); err != nil {
		t.Fatal(err)
	}
	rec, report, err := tiermerge.RecoverMobileNode("m1", bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if report.Committed != 1 || report.TornTail {
		t.Errorf("recovery report: %s", report)
	}
	if err := rec.Bind(base); err != nil {
		t.Fatal(err)
	}
	out, err := rec.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Saved != 1 || base.Master().Get("x") != 8 {
		t.Errorf("recovered merge: %+v, x=%d", out, base.Master().Get("x"))
	}
}

// TestPublicCodec round-trips a transaction through the wire format.
func TestPublicCodec(t *testing.T) {
	orig := tiermerge.GuardedTransfer("T", tiermerge.Tentative, "a", "b", 9)
	data, err := tiermerge.MarshalTransaction(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tiermerge.UnmarshalTransaction(data)
	if err != nil {
		t.Fatal(err)
	}
	s := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"a": 100})
	s1, _, err := orig.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := got.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("codec divergence: %s vs %s", s1, s2)
	}
	if n, err := tiermerge.TransactionEncodedSize(orig); err != nil || n != len(data) {
		t.Errorf("EncodedSize = %d,%v; want %d", n, err, len(data))
	}
}

// TestPublicInvert exercises compensator synthesis from the facade.
func TestPublicInvert(t *testing.T) {
	dep := tiermerge.Deposit("T", tiermerge.Tentative, "x", 7)
	inv, err := tiermerge.Invert(dep)
	if err != nil {
		t.Fatal(err)
	}
	s := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 1})
	s1, _, _ := dep.Exec(s, nil)
	s2, _, err := inv.Exec(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Equal(s) {
		t.Errorf("invert: %s, want %s", s2, s)
	}
}

// TestPublicDetectorsAndAcceptance touches the extension surface.
func TestPublicDetectorsAndAcceptance(t *testing.T) {
	det := tiermerge.NewCachedDetector(tiermerge.StaticDetector{})
	d1 := tiermerge.Deposit("D1", tiermerge.Tentative, "x", 1)
	d2 := tiermerge.Deposit("D2", tiermerge.Tentative, "x", 2)
	if !det.CanPrecede(d1, d2, nil) {
		t.Error("deposits must commute")
	}
	if err := tiermerge.AcceptSameWrites(d1, mustEffect(t, d1), mustEffect(t, d1)); err != nil {
		t.Errorf("identical effects rejected: %v", err)
	}
	if tiermerge.AcceptWithinDrift(0) == nil {
		t.Error("nil acceptance built")
	}
}

func mustEffect(t *testing.T, txn *tiermerge.Transaction) *tiermerge.Effect {
	t.Helper()
	_, eff, err := txn.Exec(tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 10}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

// TestFacadeSurface touches every remaining facade constructor so the
// public API is exercised end to end from outside the module boundary.
func TestFacadeSurface(t *testing.T) {
	s := tiermerge.NewState()
	s.Set("x", 3)
	if s.Get("x") != 3 {
		t.Error("NewState/Set/Get")
	}
	if set := tiermerge.NewItemSet("a", "b"); !set.Has("a") || set.Has("c") {
		t.Error("NewItemSet")
	}
	txn, err := tiermerge.NewTransaction("T", tiermerge.Tentative,
		tiermerge.Update("x", tiermerge.Add(tiermerge.Var("x"), tiermerge.Const(1))))
	if err != nil {
		t.Fatal(err)
	}
	h1 := tiermerge.NewHistory(txn)
	h2 := tiermerge.NewHistory(txn)
	eq, err := tiermerge.FinalStateEquivalent(h1, h2, s)
	if err != nil || !eq {
		t.Errorf("FinalStateEquivalent = %v, %v", eq, err)
	}
	if w := tiermerge.DefaultCostWeights(); w.ForcedWriteCost == 0 {
		t.Error("DefaultCostWeights zero")
	}
	gen := tiermerge.NewWorkloadGenerator(tiermerge.WorkloadConfig{Seed: 1})
	if gen.Txn(tiermerge.Tentative) == nil {
		t.Error("generator returned nil")
	}

	// WAL surface: journal one txn, read and replay.
	var buf bytes.Buffer
	w := tiermerge.NewWALWriter(&buf)
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 1})
	if err := w.Checkout(1, 0, origin); err != nil {
		t.Fatal(err)
	}
	_, eff, err := txn.Exec(origin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogTxn(txn, eff); err != nil {
		t.Fatal(err)
	}
	recs, err := tiermerge.ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tiermerge.ReplayWAL(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Augmented.H.Len() != 1 {
		t.Errorf("replayed %d txns", rep.Augmented.H.Len())
	}
}

// TestFacadeBaseRecovery round-trips a journaled cluster via the facade.
func TestFacadeBaseRecovery(t *testing.T) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 1})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	var journal bytes.Buffer
	if err := base.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := base.ExecBase(tiermerge.Deposit("Tb1", tiermerge.Base, "x", 4)); err != nil {
		t.Fatal(err)
	}
	rec, report, err := tiermerge.RecoverBaseCluster(bytes.NewReader(journal.Bytes()), tiermerge.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Committed != 1 || report.TornTail {
		t.Errorf("recovery report: %s", report)
	}
	if !rec.Master().Equal(base.Master()) {
		t.Errorf("recovered %s != %s", rec.Master(), base.Master())
	}
}
