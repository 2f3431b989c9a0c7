package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// TestServerMergeRoundTrip drives the full protocol through serialized
// messages and compares against the direct-call path.
func TestServerMergeRoundTrip(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	srv := Serve(b)
	defer srv.Close()

	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	if got := c.Local().Get("x"); got != 105 {
		t.Errorf("client local x = %d, want 105", got)
	}
	if err := srv.ExecBaseRemote(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged || out.Saved != 1 || out.Reprocessed != 0 {
		t.Errorf("outcome = %+v", out)
	}
	master := b.Master()
	if master.Get("x") != 105 || master.Get("z") != 307 {
		t.Errorf("master = %s", master)
	}
	if c.Pending() != 0 {
		t.Errorf("pending after merge = %d", c.Pending())
	}
	reqs, in, outB := srv.Stats()
	if reqs < 3 || in == 0 || outB == 0 {
		t.Errorf("server stats: reqs=%d in=%d out=%d", reqs, in, outB)
	}
}

// TestTentativeAllocIndependentOfItems: a tentative transaction runs in
// place on the client's one working state and replays in place on the
// server, so what one more transaction in a period adds to the period's
// allocations must not grow with the number of items in the replica.
// Regression: every tentative transaction copied the whole replica twice,
// once when the mobile ran it and once when the server replayed the journal.
func TestTentativeAllocIndependentOfItems(t *testing.T) {
	// One P: the JSON codec's per-P buffer pools then hand the client and the
	// server worker the same warm buffers in every round, instead of a
	// scheduling-dependent re-allocation the size of the origin.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	periodBytes := func(items, k int) int64 {
		initial := model.NewState()
		for i := 0; i < items; i++ {
			initial.Set(workload.ItemName(i), 100)
		}
		srv := Serve(NewBaseCluster(initial, Config{}))
		defer srv.Close()
		ctx := context.Background()
		c, err := DialTransport(ctx, "m1", srv.Transport())
		if err != nil {
			t.Fatal(err)
		}
		best := int64(math.MaxInt64)
		for round := 0; round < 5; round++ { // the minimum drops slice-growth steps
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < k; i++ {
				if err := c.Run(workload.Deposit(fmt.Sprintf("T%d.%d", round, i), tx.Tentative, workload.ItemName(i%8), 1)); err != nil {
					t.Fatal(err)
				}
			}
			out, err := c.ConnectMergeContext(ctx)
			runtime.ReadMemStats(&after)
			if err != nil || out.Saved != k {
				t.Fatalf("reconnect of %d transactions on %d items = %+v, %v", k, items, out, err)
			}
			best = min(best, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return best
	}
	perTxn := func(items int) int64 { return (periodBytes(items, 34) - periodBytes(items, 2)) / 32 }
	small, large := perTxn(64), perTxn(4096)
	t.Logf("one more tentative transaction allocates %d B on 64 items, %d B on 4096 items", small, large)
	if large > 2*small {
		t.Errorf("one more tentative transaction on 4096 items allocates %d B, more than 2x the %d B on 64 items", large, small)
	}
}

// TestServerConflictOverWire: a conflicting client transaction is backed
// out and re-executed from the shipped code.
func TestServerConflictOverWire(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	srv := Serve(b)
	defer srv.Close()

	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.SetPrice("Tm1", tx.Tentative, "x", 111)); err != nil {
		t.Fatal(err)
	}
	if err := srv.ExecBaseRemote(workload.SetPrice("Tb1", tx.Base, "x", 222)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Saved != 0 || out.Reprocessed != 1 {
		t.Errorf("outcome = %+v, want backed out + reexecuted", out)
	}
	if out.Report != nil {
		t.Error("full report should not travel over the wire")
	}
	if got := b.Master().Get("x"); got != 111 {
		t.Errorf("master x = %d, want 111 (re-executed from shipped code)", got)
	}
}

// TestServerReprocessOverWire exercises the two-tier baseline path.
func TestServerReprocessOverWire(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	srv := Serve(b)
	defer srv.Close()
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("Tm1", tx.Tentative, "y", 9)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ConnectReprocess()
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged || out.Reprocessed != 1 {
		t.Errorf("outcome = %+v", out)
	}
	if got := b.Master().Get("y"); got != 209 {
		t.Errorf("master y = %d, want 209", got)
	}
}

// TestServerConcurrentClients hammers the server from many goroutines; the
// single-goroutine server serializes them and the additive total survives.
func TestServerConcurrentClients(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()

	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(fmt.Sprintf("m%d", i), srv)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("T%d.%d", i, r)
				if err := c.Run(workload.Deposit(id, tx.Tentative, "acct", 1)); err != nil {
					errs <- err
					return
				}
				if _, err := c.ConnectMerge(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Whether saved or backed-out-and-re-executed, every deposit lands.
	if got := b.Master().Get("acct"); got != clients*rounds {
		t.Errorf("acct = %d, want %d", got, clients*rounds)
	}
}

// TestServerClosedRejectsCalls: calls after Close fail fast.
func TestServerClosedRejectsCalls(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	srv := Serve(b)
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.ConnectMerge(); err == nil {
		t.Error("call after Close succeeded")
	}
}

// TestServerShipsBadIDs: the back-out set survives the wire as a summary.
func TestServerShipsBadIDs(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	srv := Serve(b)
	defer srv.Close()
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.SetPrice("Tm1", tx.Tentative, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.ExecBaseRemote(workload.SetPrice("Tb1", tx.Base, "x", 2)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.BadIDs) != 1 || out.BadIDs[0] != "Tm1" {
		t.Errorf("BadIDs = %v, want [Tm1]", out.BadIDs)
	}
}

// TestLossyTransportExactlyOnce drops every 2nd response; clients retry and
// the dedup cache guarantees each deposit is applied exactly once — the
// additive total proves no double-merge happened.
func TestLossyTransportExactlyOnce(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b, WithDropEveryNth(2))
	defer srv.Close()

	c, err := Dial("m1", srv)
	if err != nil {
		// The checkout itself may need a retry under 50% loss; Dial does
		// not retry, so use a fresh attempt.
		c, err = Dial("m1", srv)
		if err != nil {
			t.Fatal(err)
		}
	}
	const deposits = 10
	applied := 0
	for i := 0; i < deposits; i++ {
		id := fmt.Sprintf("T%d", i)
		if err := c.Run(workload.Deposit(id, tx.Tentative, "acct", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ConnectMerge(); err != nil {
			// Checkout-after-merge can be dropped too; the merge itself
			// was applied exactly once. Redial to refresh the replica.
			c2, derr := Dial("m1", srv)
			for derr != nil {
				c2, derr = Dial("m1", srv)
			}
			c2.seq = c.seq
			c = c2
		}
		applied++
	}
	if got := b.Master().Get("acct"); got != deposits {
		t.Errorf("acct = %d, want %d (lost or duplicated merges)", got, deposits)
	}
	_ = applied
}

// TestRetriedMergeNotDoubleApplied pins the dedup path directly: the same
// journal+seq sent twice merges once.
func TestRetriedMergeNotDoubleApplied(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
		t.Fatal(err)
	}
	journal, err := c.marshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	req := wireReq{Kind: reqMerge, MobileID: "m1", Seq: 42, Journal: journal}
	if _, err := call(context.Background(), srv.Transport(), req); err != nil {
		t.Fatal(err)
	}
	resp2, err := call(context.Background(), srv.Transport(), req) // retry of the same seq
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Saved != 1 {
		t.Errorf("cached response saved = %d, want 1", resp2.Saved)
	}
	if got := b.Master().Get("acct"); got != 5 {
		t.Errorf("acct = %d, want 5 (double-applied!)", got)
	}
}

// TestInflightDuplicateMergedOnce: four deliveries of one merge frame
// (x := x + 1) reach ServeFrame at once. One merges; the others wait for it
// and return its response, and the master shows exactly one application.
// Regression: the dedup cache was consulted before the merge and filled
// after it, so concurrent duplicates all merged.
func TestInflightDuplicateMergedOnce(t *testing.T) {
	const trials, deliveries = 200, 4
	frame := mergeFrame(t, 1, origin(), workload.Deposit("Tm1", tx.Tentative, "x", 1))
	for trial := 0; trial < trials; trial++ {
		b := NewBaseCluster(origin(), Config{})
		srv := Serve(b)
		start := make(chan struct{})
		resps := make([][]byte, deliveries)
		var wg sync.WaitGroup
		for d := 0; d < deliveries; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				<-start
				resps[d], _, _ = srv.ServeFrame(frame)
			}(d)
		}
		close(start)
		wg.Wait()
		srv.Close()
		if got := b.Master().Get("x"); got != 101 {
			t.Fatalf("trial %d: x = %d after %d concurrent deliveries of one reconnect, want 101 (one application)",
				trial, got, deliveries)
		}
		for d := 1; d < deliveries; d++ {
			if !bytes.Equal(resps[d], resps[0]) {
				t.Fatalf("trial %d: delivery %d answered %s, delivery 0 %s", trial, d, resps[d], resps[0])
			}
		}
	}
}

// TestServeFrameRejectsDamagedJournal: a reconnect payload is not a crash
// image. One that lost its final commit record, or whose final record was
// cut short, must be refused — not merged as the shorter history its intact
// prefix spells — with an error the dedup cache does not keep, and with the
// master untouched. Regression: both forms merged Tm1 and silently dropped
// Tm2, and the cached response made the intact retry replay that loss.
func TestServeFrameRejectsDamagedJournal(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	for i, amt := range []model.Value{5, 7} {
		if err := c.Run(workload.Deposit(fmt.Sprintf("Tm%d", i+1), tx.Tentative, "acct", amt)); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := c.marshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Scan(bytes.NewReader(journal), wal.Strict)
	if err != nil {
		t.Fatal(err)
	}
	damaged := map[string][]byte{
		"without final commit":   journal[:res.Ends[len(res.Ends)-2]],
		"final record cut short": journal[:len(journal)-4],
	}
	frame := func(j []byte) []byte {
		payload, err := json.Marshal(wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Epoch: "e1", Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for name, j := range damaged {
		raw, _, lost := srv.ServeFrame(frame(j))
		var resp wireResp
		if err := json.Unmarshal(raw, &resp); err != nil || lost {
			t.Fatalf("%s: response %q lost=%v: %v", name, raw, lost, err)
		}
		if resp.Err == "" {
			t.Errorf("%s: damaged journal accepted: %s", name, raw)
		}
		if got := b.Master().Get("acct"); got != 0 {
			t.Fatalf("%s: acct = %d after a refused reconnect, want 0", name, got)
		}
	}
	// Neither refusal was cached: the intact journal under the same seq
	// merges both transactions.
	raw, _, _ := srv.ServeFrame(frame(journal))
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil || resp.Err != "" || resp.Saved != 2 {
		t.Errorf("intact retry: %s (%v), want 2 saved", raw, err)
	}
	if got := b.Master().Get("acct"); got != 12 {
		t.Errorf("acct = %d after the intact retry, want 12", got)
	}
}

// TestStaleSeqRejected is the wire-dedup regression test: the server's
// exactly-once guard matched only the EXACT last seq, so a delayed
// duplicate of an OLDER reconnect frame fell through the cache and was
// merged again — double-applying its journal. The stale frame must now be
// rejected with ErrStaleSeq and leave no trace on the master. Runs under
// -race in scripts/check.sh with concurrent duplicate deliveries.
func TestStaleSeqRejected(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}

	// Reconnect seq 1: deposit 5.
	if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
		t.Fatal(err)
	}
	journal1, err := c.marshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	req1 := wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Journal: journal1}
	if _, err := call(ctx, srv.Transport(), req1); err != nil {
		t.Fatal(err)
	}

	// Reconnect seq 2: a fresh period depositing 7.
	if err := c.checkout(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("T2", tx.Tentative, "acct", 7)); err != nil {
		t.Fatal(err)
	}
	journal2, err := c.marshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, srv.Transport(),
		wireReq{Kind: reqMerge, MobileID: "m1", Seq: 2, Journal: journal2}); err != nil {
		t.Fatal(err)
	}
	if got := b.Master().Get("acct"); got != 12 {
		t.Fatalf("acct = %d, want 12 before the duplicate", got)
	}

	// The seq-1 frame arrives again — delayed in transit, out of order.
	// Deliver it from several goroutines at once: every copy must be
	// rejected as stale and none may re-merge journal1.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = call(ctx, srv.Transport(), req1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrStaleSeq) {
			t.Errorf("duplicate %d: err = %v, want ErrStaleSeq", i, err)
		}
	}
	if got := b.Master().Get("acct"); got != 12 {
		t.Errorf("acct = %d, want 12 (stale frame re-applied deposit!)", got)
	}
	// The exact-match retry path still replays the cached response.
	resp, err := call(ctx, srv.Transport(),
		wireReq{Kind: reqMerge, MobileID: "m1", Seq: 2, Journal: journal2})
	if err != nil || resp.Saved != 1 {
		t.Errorf("retry of current seq: resp=%+v err=%v", resp, err)
	}
}

// TestRetryAfterManyMobilesMergedOnce: 1100 mobiles each merge seq 1,
// then the first mobile's identical frame is delivered again. The retry is
// answered from the applied table and the master does not move.
// Regression: the table was an LRU of 1024 mobiles, the first mobile's
// entry had been evicted, and the retry merged its deposit a second time.
func TestRetryAfterManyMobilesMergedOnce(t *testing.T) {
	const mobiles = 1100
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()
	c, err := Dial("probe", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 1)); err != nil {
		t.Fatal(err)
	}
	journal, err := c.marshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	frame := func(mobile string) []byte {
		payload, err := json.Marshal(wireReq{Kind: reqMerge, MobileID: mobile, Seq: 1, Epoch: "e1", Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for i := 0; i < mobiles; i++ {
		if resp := serveOne(t, srv, frame(fmt.Sprintf("m%d", i))); resp.Err != "" {
			t.Fatalf("mobile %d: %s", i, resp.Err)
		}
	}
	if got := b.Master().Get("acct"); got != mobiles {
		t.Fatalf("acct = %d after %d deposits", got, mobiles)
	}
	resp := serveOne(t, srv, frame("m0"))
	if resp.Err != "" || resp.Saved != 1 {
		t.Errorf("retry of m0 answered %+v, want its recorded outcome (1 saved)", resp)
	}
	if got := b.Master().Get("acct"); got != mobiles {
		t.Errorf("acct = %d after m0's retry, want %d (the retry merged again)", got, mobiles)
	}
}

// TestClientRestartNewEpochNotStale pins the flip side of the stale-seq
// guard: a brand-new client process reusing a mobile ID (a fleet restart
// against a live server) starts its seqs over at 1 in a fresh session
// epoch, and must be served — not rejected as a stale duplicate of the
// previous instance's higher seq.
func TestClientRestartNewEpochNotStale(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"acct": 0}), Config{})
	srv := Serve(b)
	defer srv.Close()

	first, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := first.Run(workload.Deposit(fmt.Sprintf("Ta%d", k), tx.Tentative, "acct", 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := first.ConnectMerge(); err != nil {
			t.Fatalf("first instance reconnect %d: %v", k+1, err)
		}
	}

	// The process restarts: same mobile ID, fresh client, seq back at 1.
	second, err := Dial("m1", srv)
	if err != nil {
		t.Fatal(err)
	}
	if second.epoch == first.epoch {
		t.Fatalf("restarted client reused epoch %q", second.epoch)
	}
	if err := second.Run(workload.Deposit("Tb", tx.Tentative, "acct", 7)); err != nil {
		t.Fatal(err)
	}
	out, err := second.ConnectMerge()
	if err != nil {
		t.Fatalf("restarted client rejected: %v", err)
	}
	if !out.Merged || out.Saved != 1 {
		t.Fatalf("restarted client outcome = %+v, want merged with 1 saved", out)
	}
	if got := b.Master().Get("acct"); got != 22 {
		t.Fatalf("acct = %d, want 22 (three 5s + one 7)", got)
	}

	// Within the new session the stale guard still bites: after the second
	// instance advances to seq 2, a replay of its seq-1 frame is stale.
	if err := second.Run(workload.Deposit("Tc", tx.Tentative, "acct", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := second.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	journal := []byte{}
	_, err = call(context.Background(), srv.Transport(),
		wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Epoch: second.epoch, Journal: journal})
	if !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("replayed seq-1 frame in the live epoch: err = %v, want ErrStaleSeq", err)
	}
}
