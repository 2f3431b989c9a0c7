package replica

import (
	"fmt"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for retried prepares: upload charges billed once per reconnect
// regardless of retries, and a retried prepare identical to a first prepare
// over the longer prefix. Both run under -race in scripts/check.sh.

// retryingMobile builds a one-mobile cluster whose reconnect is forced
// through exactly two attempts: hookAfterPrepare commits baseTxn between
// attempt 1's prepare and admit, so admission sees a conflicting extension
// and the merge re-prepares. baseTxn == nil leaves the reconnect
// single-attempt.
func retryingMobile(tr obs.Observer, baseTxn func() *tx.Transaction, t *testing.T) (*BaseCluster, *MobileNode) {
	t.Helper()
	b := NewBaseCluster(fleetOrigin(), Config{Observer: tr})
	m := NewMobileNode("m0", b)
	for k := 0; k < 2; k++ {
		if err := m.Run(workload.Deposit(fmt.Sprintf("Td%d", k), tx.Tentative, "a0", 5)); err != nil {
			t.Fatal(err)
		}
	}
	if baseTxn != nil {
		b.hookAfterPrepare = func(attempt int) {
			if attempt == 1 {
				if err := b.ExecBase(baseTxn()); err != nil {
					t.Errorf("hook ExecBase: %v", err)
				}
			}
		}
	}
	return b, m
}

// TestRetryBillsUploadOnce is the cost-accounting regression test: a merge
// that needs two prepare/admit attempts must report exactly the upload
// charges of a single-attempt merge (the mobile ships Hm once per
// reconnect), while still billing the compute of BOTH attempts. Before the
// fix each attempt rebuilt its delta from scratch and only the admitted
// attempt's delta reached the counters, so the failed attempt's compute
// silently vanished from the Section 7.1 accounting.
func TestRetryBillsUploadOnce(t *testing.T) {
	run := func(retry bool) cost.Counts {
		var baseTxn func() *tx.Transaction
		if retry {
			// A base assignment to a0 lands inside the merge footprint (an
			// increment would be invisible under delta semantics): attempt 1
			// fails admission and the rebuilt report must rerun back-out and
			// rewrite.
			baseTxn = func() *tx.Transaction { return workload.SetPrice("Bb", tx.Base, "a0", 107) }
		}
		b, m := retryingMobile(nil, baseTxn, t)
		out, err := m.ConnectMerge()
		if err != nil || !out.Merged {
			t.Fatalf("connect (retry=%v) = %+v, %v", retry, out, err)
		}
		return b.Counters().Snapshot()
	}
	single := run(false)
	retried := run(true)

	if retried.MergeRetries != 1 {
		t.Fatalf("MergeRetries = %d, want 1 (hook must force exactly one re-prepare)", retried.MergeRetries)
	}
	if single.MergeRetries != 0 {
		t.Fatalf("baseline MergeRetries = %d, want 0", single.MergeRetries)
	}
	// Upload: billed exactly once per reconnect, never per attempt.
	if retried.SetEntriesSent != single.SetEntriesSent {
		t.Errorf("SetEntriesSent = %d after a retry, want %d (upload re-billed?)",
			retried.SetEntriesSent, single.SetEntriesSent)
	}
	if retried.GraphEdgesSent != single.GraphEdgesSent {
		t.Errorf("GraphEdgesSent = %d after a retry, want %d (upload re-billed?)",
			retried.GraphEdgesSent, single.GraphEdgesSent)
	}
	if retried.MobileGraphOps != single.MobileGraphOps {
		t.Errorf("MobileGraphOps = %d after a retry, want %d (G(Hm) built once on the mobile)",
			retried.MobileGraphOps, single.MobileGraphOps)
	}
	// Compute: the failed attempt's rewrite work really happened and the
	// conflicting extension forced a rerun, so the two-attempt reconnect
	// must bill MORE rewrite compute than the single-attempt one. Pre-fix
	// the failed attempt's delta was dropped and the totals matched a
	// single attempt.
	if retried.MobileRewriteOps <= single.MobileRewriteOps {
		t.Errorf("MobileRewriteOps = %d after a retried rerun, want > %d (failed attempt's compute dropped?)",
			retried.MobileRewriteOps, single.MobileRewriteOps)
	}
	// Exactly one merge was performed either way.
	if retried.MergesPerformed != 1 || single.MergesPerformed != 1 {
		t.Errorf("MergesPerformed = %d/%d, want 1/1", retried.MergesPerformed, single.MergesPerformed)
	}
}

// TestIncrementalRetryMatchesFromScratch: a reconnect whose admission races
// a base commit re-prepares on the longer prefix, and that retried prepare
// must equal a first prepare over the same prefix — report, outcome, master
// state and the size of the view — whether the commit conflicts with Hm
// ("rebuild": it rewrites what Hm read) or merely intersects the footprint
// ("fast-retry": a read-only touch admission conservatively rejects).
func TestIncrementalRetryMatchesFromScratch(t *testing.T) {
	// The mobile reads the price p and deposits into a0; footprint {p, a0}.
	mobileTxn := func(id string) *tx.Transaction {
		return tx.MustNew(id, tx.Tentative,
			tx.Read("p"),
			tx.Update("a0", expr.Add(expr.Var("a0"), expr.Const(5))),
		).WithType("depwatch")
	}
	cases := []struct {
		name    string
		baseTxn func() *tx.Transaction
	}{
		{"rebuild", func() *tx.Transaction { return workload.SetPrice("Bp", tx.Base, "p", 77) }},
		{"fast-retry", func() *tx.Transaction { return tx.MustNew("Br", tx.Base, tx.Read("p")) }},
	}
	// run reconnects one mobile; with raced the base transaction commits
	// between attempt 1's prepare and admit, otherwise before the reconnect
	// ever snapshots. It returns the outcome, the master and the graph-build
	// event of the admitted attempt.
	run := func(t *testing.T, baseTxn func() *tx.Transaction, raced bool) (*ConnectOutcome, model.State, obs.Event) {
		tr := obs.NewTracer()
		b := NewBaseCluster(fleetOrigin(), Config{Observer: tr})
		m := NewMobileNode("m0", b)
		if err := m.Run(mobileTxn("Tm")); err != nil {
			t.Fatal(err)
		}
		wantAttempt, wantRetries := 1, int64(0)
		if raced {
			wantAttempt, wantRetries = 2, 1
			b.hookAfterPrepare = func(attempt int) {
				if attempt == 1 {
					if err := b.ExecBase(baseTxn()); err != nil {
						t.Errorf("hook ExecBase: %v", err)
					}
				}
			}
		} else if err := b.ExecBase(baseTxn()); err != nil {
			t.Fatal(err)
		}
		out, err := m.ConnectMerge()
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Counters().Snapshot().MergeRetries; got != wantRetries {
			t.Fatalf("MergeRetries = %d, want %d", got, wantRetries)
		}
		var builds []obs.Event
		for _, ev := range tr.Events() {
			if ev.Phase == obs.PhaseGraph {
				builds = append(builds, ev)
			}
		}
		if len(builds) != wantAttempt || builds[len(builds)-1].Attempt != wantAttempt {
			t.Fatalf("graph-build events %+v, want one per attempt (%d)", builds, wantAttempt)
		}
		for _, mt := range tr.Merges() {
			validateTrace(t, mt)
		}
		return out, b.Master(), builds[len(builds)-1]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outA, masterA, buildA := run(t, tc.baseTxn, true)
			outB, masterB, buildB := run(t, tc.baseTxn, false)
			if outA.Merged != outB.Merged || outA.Saved != outB.Saved ||
				outA.Reprocessed != outB.Reprocessed || outA.Failed != outB.Failed {
				t.Errorf("outcomes diverged:\nretried %+v\nfirst   %+v", outA, outB)
			}
			if a, b := reportOutcome(outA.Report), reportOutcome(outB.Report); a != b {
				t.Errorf("reports diverged:\nretried %s\nfirst   %s", a, b)
			}
			if !masterA.Equal(masterB) {
				t.Errorf("masters diverged:\nretried %s\nfirst   %s", masterA, masterB)
			}
			if buildA.BaseViewed != 1 || buildA.BaseViewed != buildB.BaseViewed || buildA.BaseKept != buildB.BaseKept {
				t.Errorf("retried build saw base %d/%d, first build %d/%d; want the one raced entry viewed by both",
					buildA.BaseKept, buildA.BaseViewed, buildB.BaseKept, buildB.BaseViewed)
			}
		})
	}
}
