package replica

import (
	"fmt"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the incremental re-prepare path: upload charges billed once
// per reconnect regardless of retries, and retry outcomes identical to a
// from-scratch merge over the same prefix (both the full-rebuild and the
// no-mobile-edge fast-retry path). The parity test runs under -race in
// scripts/check.sh.

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
// a base commit must land on exactly the outcome of a from-scratch merge
// against the longer prefix — for both incremental paths: the full rerun
// (the base commit conflicts with Hm, adding a mobile-incident edge) and
// the fast retry (a read-only base touch intersects the footprint so
// admission conservatively fails, but the graph extension adds no
// mobile-incident edge and the prior report is reused verbatim).
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
		wantRer bool // extension must add a mobile-incident edge
	}{
		{
			name:    "rebuild",
			baseTxn: func() *tx.Transaction { return workload.SetPrice("Bp", tx.Base, "p", 77) },
			wantRer: true,
		},
		{
			name:    "fast-retry",
			baseTxn: func() *tx.Transaction { return tx.MustNew("Br", tx.Base, tx.Read("p")) },
			wantRer: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Incremental run: the base transaction commits between attempt
			// 1's prepare and admit.
			trA := obs.NewTracer()
			bA := NewBaseCluster(fleetOrigin(), Config{Observer: trA})
			mA := NewMobileNode("m0", bA)
			if err := mA.Run(mobileTxn("Tm")); err != nil {
				t.Fatal(err)
			}
			bA.hookAfterPrepare = func(attempt int) {
				if attempt == 1 {
					if err := bA.ExecBase(tc.baseTxn()); err != nil {
						t.Errorf("hook ExecBase: %v", err)
					}
				}
			}
			outA, err := mA.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}

			// From-scratch run: the base transaction commits before the
			// reconnect ever snapshots.
			bB := NewBaseCluster(fleetOrigin(), Config{})
			mB := NewMobileNode("m0", bB)
			if err := mB.Run(mobileTxn("Tm")); err != nil {
				t.Fatal(err)
			}
			if err := bB.ExecBase(tc.baseTxn()); err != nil {
				t.Fatal(err)
			}
			outB, err := mB.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}

			if outA.Merged != outB.Merged || outA.Saved != outB.Saved ||
				outA.Reprocessed != outB.Reprocessed || outA.Failed != outB.Failed ||
				len(outA.BadIDs) != len(outB.BadIDs) {
				t.Errorf("outcomes diverged:\nincremental  %+v\nfrom-scratch %+v", outA, outB)
			}
			if !bA.Master().Equal(bB.Master()) {
				t.Errorf("masters diverged:\nincremental  %s\nfrom-scratch %s", bA.Master(), bB.Master())
			}
			cA := bA.Counters().Snapshot()
			if cA.MergeRetries != 1 {
				t.Fatalf("MergeRetries = %d, want 1", cA.MergeRetries)
			}
			// The retry must have gone through the graph extension, and its
			// mobile-edge count decides which path it took.
			var extends int
			for _, ev := range trA.Events() {
				if ev.Phase != obs.PhaseExtend {
					continue
				}
				extends++
				if gotRer := ev.Affected > 0; gotRer != tc.wantRer {
					t.Errorf("extend event Affected = %d, want mobile-incident edges: %v",
						ev.Affected, tc.wantRer)
				}
			}
			if extends != 1 {
				t.Errorf("saw %d graph-extend events, want 1", extends)
			}
			for _, mt := range trA.Merges() {
				validateTrace(t, mt)
			}
		})
	}
}
