package replica

import (
	"bytes"
	"encoding/json"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// Tests for the Strategy 1 checkout-token check (checkTokenLocked): a token
// admits a merge exactly when its origin equals the base state at its
// position of the current window.

// tokenReason runs the token check alone, without merging.
func tokenReason(b *BaseCluster, ck Checkout) FallbackReason {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, reason := b.checkTokenLocked(ck, nil)
	return reason
}

// TestStrategy1TokenCheck: tokens taken at the window origin, inside the
// history and at its tail stay valid across later appends and a restart,
// and an interior insert invalidates exactly the tokens whose position
// lies past it. A tampered origin and a position outside the window are
// refused in every phase.
func TestStrategy1TokenCheck(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Origin: Strategy1}
	b, _, err := OpenBase(dir, origin(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { b.CloseStore() }()
	exec := func(id string, it model.Item) {
		t.Helper()
		if err := b.ExecBase(workload.Deposit(id, tx.Base, it, 1)); err != nil {
			t.Fatal(err)
		}
	}

	tok0 := b.CheckoutReplica("a") // position 0
	exec("Tb1", "x")
	exec("Tb2", "y")
	tokK := b.CheckoutReplica("b") // position 2
	exec("Tb3", "x")
	tokN := b.CheckoutReplica("c") // position 3, the tail
	exec("Tb4", "z")               // later append

	tampered := tokK
	tampered.Origin = tokK.Origin.Clone()
	tampered.Origin.Set("y", tampered.Origin.Get("y")+1)
	beyond := tokN
	beyond.Pos = 6 // past the tail in every phase
	negative := tok0
	negative.Pos = -1

	cases := []struct {
		name string
		ck   Checkout
		// want per phase: after the later append, after a restart, after
		// an interior insert at position 2.
		want [3]FallbackReason
	}{
		{"pos-0", tok0, [3]FallbackReason{FallbackNone, FallbackNone, FallbackNone}},
		{"pos-k", tokK, [3]FallbackReason{FallbackNone, FallbackNone, FallbackNone}},
		{"pos-len", tokN, [3]FallbackReason{FallbackNone, FallbackNone, FallbackOriginInvalid}},
		{"tampered", tampered, [3]FallbackReason{FallbackOriginInvalid, FallbackOriginInvalid, FallbackOriginInvalid}},
		{"pos-beyond-len", beyond, [3]FallbackReason{FallbackOriginInvalid, FallbackOriginInvalid, FallbackOriginInvalid}},
		{"pos-negative", negative, [3]FallbackReason{FallbackOriginInvalid, FallbackOriginInvalid, FallbackOriginInvalid}},
	}
	check := func(phase int, label string) {
		t.Helper()
		for _, tc := range cases {
			got := tokenReason(b, tc.ck)
			if got != tc.want[phase] {
				t.Errorf("%s: %s token (pos %d) = %q, want %q", label, tc.name, tc.ck.Pos, got, tc.want[phase])
			}
			if tc.ck.Pos < 0 || tc.ck.Pos > b.HistoryLen() {
				continue
			}
			b.mu.Lock()
			equal := tc.ck.Origin.Equal(serialRunLocked(t, b).StateAt(tc.ck.Pos))
			b.mu.Unlock()
			if equal != (got == FallbackNone) {
				t.Errorf("%s: %s token = %q, but origin equals the state at its position: %v", label, tc.name, got, equal)
			}
		}
	}
	check(0, "after append")

	// Restart: the replayed journal rebuilds the same window in the same
	// order (no interior insert yet, so commit order is position order).
	if err := b.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if b, _, err = OpenBase(dir, origin(), cfg); err != nil {
		t.Fatal(err)
	}
	check(1, "after restart")

	// Interior insert: the holder of tokK deposits on w, which no later
	// entry touches, so its write-back lands at position 2 and every
	// position past it now includes w's deposit.
	hm := history.Start(tokK.Origin)
	if _, err := hm.Append(workload.Deposit("Tk", tx.Tentative, "w", 5)); err != nil {
		t.Fatal(err)
	}
	if out, err := b.Merge(tokK, hm); err != nil || !out.Merged {
		t.Fatalf("interior-insert merge = %+v, %v; want merged", out, err)
	}
	if n := b.HistoryLen(); n != 5 {
		t.Fatalf("history holds %d entries after the insert, want 5", n)
	}
	check(2, "after interior insert")
}

// negativePosCluster builds the shape of a previous-window token replayed
// at position -1: a Strategy 1 cluster whose current window origin equals
// the previous window's final state, with one entry in the current window.
// It returns the cluster and a token at position -1 carrying that origin.
func negativePosCluster(t *testing.T) (*BaseCluster, Checkout) {
	t.Helper()
	b := NewBaseCluster(origin(), Config{Origin: Strategy1})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	ck := Checkout{MobileID: "m1", WindowID: b.WindowID(), Pos: -1, Origin: b.Master()}
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	return b, ck
}

// TestMergeRefusesNegativeCheckoutPos: a token at position -1 falls back
// with FallbackOriginInvalid, like one past the tail. Regression: the check
// bounded the position from above only, the state "at -1" resolved to the
// previous window's final state — the current origin — so the token
// passed, and installing the write-back at -1 panicked with the cluster
// mutex held.
func TestMergeRefusesNegativeCheckoutPos(t *testing.T) {
	b, ck := negativePosCluster(t)
	hm := history.Start(ck.Origin)
	if _, err := hm.Append(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	out, err := b.Merge(ck, hm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged || out.Fallback != FallbackOriginInvalid {
		t.Fatalf("outcome = %+v, want an origin-invalidated fallback", out)
	}
	if got := b.Master().Get("y"); got != 205 {
		t.Errorf("y = %d after the reprocessed deposit, want 205", got)
	}
}

// TestServeFrameRefusesNegativeCheckoutPos: the same token arriving in a
// merge frame's journal is refused over the wire instead of taking the
// base down.
func TestServeFrameRefusesNegativeCheckoutPos(t *testing.T) {
	b, ck := negativePosCluster(t)
	srv := Serve(b)
	defer srv.Close()
	tm := workload.Deposit("Tm1", tx.Tentative, "y", 5)
	eff, err := tm.ExecInPlace(ck.Origin.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if _, err := wal.NewPeriod(&journal, ck.WindowID, ck.Pos, ck.Origin, 1,
		func(int) (*tx.Transaction, *tx.Effect) { return tm, eff }); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Epoch: "e1", Journal: journal.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, lost := srv.ServeFrame(payload)
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil || lost {
		t.Fatalf("response %q lost=%v: %v", raw, lost, err)
	}
	if resp.Err != "" || resp.Merged || resp.Fallback != string(FallbackOriginInvalid) {
		t.Fatalf("response %s, want an origin-invalidated fallback", raw)
	}
	if got := b.Master().Get("y"); got != 205 {
		t.Errorf("y = %d after the reprocessed deposit, want 205", got)
	}
}
