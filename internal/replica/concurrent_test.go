package replica

import (
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for simultaneous reconnects: they must land on a state some serial
// admission order produces, counter totals must match sequential
// reconnects, and merges must coexist with live base traffic. The suite
// runs under -race in scripts/check.sh.

// fleetOrigin is a universe wide enough for a small fleet: a shared priced
// item p, a shared account s, and per-mobile accounts a0..a7 / base
// accounts b0..b7.
func fleetOrigin() model.State {
	st := model.StateOf(map[model.Item]model.Value{"p": 50, "s": 100})
	for i := 0; i < 8; i++ {
		st.Set(model.Item(fmt.Sprintf("a%d", i)), 100)
		st.Set(model.Item(fmt.Sprintf("b%d", i)), 100)
	}
	return st
}

// conflictFleet builds a cluster and n mobiles whose tentative histories
// all conflict on the shared item p (each sets its own price) while also
// depositing into private accounts.
func conflictFleet(strategy OriginStrategy, n int, t *testing.T) (*BaseCluster, []*MobileNode) {
	t.Helper()
	b := NewBaseCluster(fleetOrigin(), Config{Origin: strategy})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		if err := ms[i].Run(workload.SetPrice(fmt.Sprintf("Tp%d", i), tx.Tentative, "p", model.Value(100+11*i))); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)); err != nil {
			t.Fatal(err)
		}
	}
	return b, ms
}

// disjointFleet builds a cluster and n mobiles touching only their private
// accounts — the low-conflict workload where every merge saves everything.
func disjointFleet(strategy OriginStrategy, n int, t *testing.T) (*BaseCluster, []*MobileNode) {
	t.Helper()
	b := NewBaseCluster(fleetOrigin(), Config{Origin: strategy})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		it := model.Item(fmt.Sprintf("a%d", i))
		for k := 0; k < 3; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, it, 5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b, ms
}

// connectAll reconnects every mobile concurrently and fails the test on any
// error.
func connectAll(b *BaseCluster, ms []*MobileNode, t *testing.T) []*ConnectOutcome {
	t.Helper()
	outs := make([]*ConnectOutcome, len(ms))
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	wg.Add(len(ms))
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ms[i].ConnectMerge()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mobile %d: %v", i, err)
		}
	}
	return outs
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				perm[k] = v
				rec(k + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}

// TestConcurrentMergeMatchesSomeSerialOrder: N mobiles reconnect
// simultaneously with histories conflicting on a shared item. Under both
// origin strategies the concurrent outcome must be final-state-equivalent
// to admitting the same merges in some serial order (one-copy
// serializability of admissions).
func TestConcurrentMergeMatchesSomeSerialOrder(t *testing.T) {
	const n = 3
	for _, strategy := range []OriginStrategy{Strategy2, Strategy1} {
		t.Run(strategy.String(), func(t *testing.T) {
			// Ground truth: the final master for every serial admission
			// order, produced by reconnecting the mobiles one at a time.
			var serialStates []model.State
			for _, perm := range permutations(n) {
				b, ms := conflictFleet(strategy, n, t)
				for _, i := range perm {
					if _, err := ms[i].ConnectMerge(); err != nil {
						t.Fatal(err)
					}
				}
				serialStates = append(serialStates, b.Master())
			}
			for trial := 0; trial < 8; trial++ {
				b, ms := conflictFleet(strategy, n, t)
				connectAll(b, ms, t)
				got := b.Master()
				found := false
				for _, want := range serialStates {
					if got.Equal(want) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: concurrent master %s matches no serial admission order %v",
						trial, got, serialStates)
				}
			}
		})
	}
}

// TestConcurrentMergeLowConflictNoFallbacks: on a disjoint workload every
// concurrent merge must merge cleanly — nothing backed out, no fallbacks —
// and the final state must carry every mobile's deposits.
func TestConcurrentMergeLowConflictNoFallbacks(t *testing.T) {
	const n = 8
	b, ms := disjointFleet(Strategy2, n, t)
	outs := connectAll(b, ms, t)
	for i, out := range outs {
		if !out.Merged || out.Saved != 3 || out.Reprocessed != 0 {
			t.Errorf("mobile %d outcome = %+v, want clean merge saving 3", i, out)
		}
	}
	c := b.Counters().Snapshot()
	if c.MergeFallbacks != 0 || c.MergesPerformed != n || c.TxnsBackedOut != 0 {
		t.Errorf("counters = %+v, want %d clean merges", c, n)
	}
	master := b.Master()
	for i := 0; i < n; i++ {
		it := model.Item(fmt.Sprintf("a%d", i))
		if got := master.Get(it); got != 115 {
			t.Errorf("master %s = %d, want 115", it, got)
		}
	}
}

// TestConcurrentMergeCountersMatchSerial: on the disjoint workload
// simultaneous reconnects must charge exactly what sequential ones charge.
// BaseGraphOps and BaseBackoutOps are excluded: they scale with the base
// entries each merge's view held, which legitimately depends on admission
// order.
func TestConcurrentMergeCountersMatchSerial(t *testing.T) {
	const n = 4
	run := func(concurrent bool) cost.Counts {
		b, ms := disjointFleet(Strategy2, n, t)
		if concurrent {
			connectAll(b, ms, t)
		} else {
			for _, m := range ms {
				if _, err := m.ConnectMerge(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.Counters().Snapshot()
	}
	serial := run(false)
	conc := run(true)
	serial.BaseGraphOps, conc.BaseGraphOps = 0, 0
	serial.BaseBackoutOps, conc.BaseBackoutOps = 0, 0
	if serial != conc {
		t.Errorf("counter totals diverged:\nserial    %+v\nconcurrent %+v", serial, conc)
	}
}

// TestConcurrentMergeUnderBaseTraffic: merges race live ExecBase traffic on
// an overlapping item. Everything is additive, so whatever interleaving the
// scheduler picks, no deposit may be lost — and every reconnect enters
// exactly one critical section and never retries.
func TestConcurrentMergeUnderBaseTraffic(t *testing.T) {
	const (
		mobiles  = 4
		baseTxns = 6
	)
	b := NewBaseCluster(fleetOrigin(), Config{})
	ms := make([]*MobileNode, mobiles)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Ts%d", i), tx.Tentative, "s", 5)); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, mobiles+baseTxns)
	wg.Add(mobiles + baseTxns)
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ms[i].ConnectMerge()
		}(i)
	}
	for k := 0; k < baseTxns; k++ {
		go func(k int) {
			defer wg.Done()
			errs[mobiles+k] = b.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", k), tx.Base, "s", 7))
		}(k)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	master := b.Master()
	if got, want := master.Get("s"), model.Value(100+mobiles*5+baseTxns*7); got != want {
		t.Errorf("master s = %d, want %d (no deposit lost)", got, want)
	}
	for i := 0; i < mobiles; i++ {
		it := model.Item(fmt.Sprintf("a%d", i))
		if got := master.Get(it); got != 105 {
			t.Errorf("master %s = %d, want 105", it, got)
		}
	}
	checkOneSectionPerMerge(t, b.Counters().Snapshot())
}

// checkOneSectionPerMerge asserts the one-critical-section accounting:
// every merge reconnect — merged or fallen back — enters exactly one
// admission critical section, and nothing re-prepares.
func checkOneSectionPerMerge(t *testing.T, c cost.Counts) {
	t.Helper()
	if c.MergeRetries != 0 || c.AdmitBatches != c.MergesPerformed+c.MergeFallbacks {
		t.Errorf("MergeRetries = %d, AdmitBatches = %d, want 0 and %d (merges %d + fallbacks %d)",
			c.MergeRetries, c.AdmitBatches, c.MergesPerformed+c.MergeFallbacks, c.MergesPerformed, c.MergeFallbacks)
	}
}

// TestServerWorkerPoolConcurrentClients drives simultaneous reconnects
// through the message-passing server with a worker pool: the wire path must
// deliver the same no-lost-update guarantee.
func TestServerWorkerPoolConcurrentClients(t *testing.T) {
	const n = 6
	b := NewBaseCluster(fleetOrigin(), Config{})
	srv := Serve(b, WithWorkers(4))
	defer srv.Close()
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(fmt.Sprintf("m%d", i), srv)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if err := c.Run(workload.Deposit(fmt.Sprintf("Ts%d", i), tx.Tentative, "s", 5)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := range clients {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = clients[i].ConnectMerge()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got, want := b.Master().Get("s"), model.Value(100+n*5); got != want {
		t.Errorf("master s = %d, want %d", got, want)
	}
}
