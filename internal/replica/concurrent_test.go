package replica

import (
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Helpers for simultaneous reconnects, and the worker-pool server under
// concurrent clients. Serial-order equivalence of concurrent reconnects is
// the correctness oracle's (oracle_test.go). The suite runs under -race in
// scripts/check.sh.

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

// connectAll reconnects every mobile concurrently and fails the test on any
// error.
func connectAll(t *testing.T, ms []*MobileNode) []*ConnectOutcome {
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

// TestServerWorkerPoolConcurrentClients drives simultaneous reconnects
// through the message-passing server, each served on its client's
// goroutine: the wire path must deliver the same no-lost-update guarantee.
func TestServerWorkerPoolConcurrentClients(t *testing.T) {
	const n = 6
	b := NewBaseCluster(fleetOrigin(), Config{})
	srv := Serve(b)
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
