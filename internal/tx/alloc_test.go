package tx_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// TestExecAllocs pins the allocations of one execution of the two hottest
// canned types at one more than the 7 measured: the effect, its record
// slice, the execution environment and the two views (ReadSet, Writes) of
// two allocations each. A regression to per-field maps shows here.
func TestExecAllocs(t *testing.T) {
	for _, c := range []struct {
		txn *tx.Transaction
		pin float64
	}{
		{workload.Deposit("T1", tx.Tentative, "a", 5), 8},
		{workload.Transfer("T2", tx.Tentative, "a", "b", 5), 8},
	} {
		s := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 100})
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.txn.ExecInPlace(s, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.txn.Type, got)
		if got > c.pin {
			t.Errorf("ExecInPlace(%s) allocates %v times, pinned at %v", c.txn.Type, got, c.pin)
		}
	}
}

// TestDecodeAllocs pins the allocations of decoding one transaction — the
// server's replay of a reconnect payload — at one more than the 20 and 26
// measured: the transaction, its strings, parameters, statements and
// expressions, and one array holding the compiled sets; the path check
// allocates nothing. A return to map-based compiled sets (23 and 32) or to
// a cloned written set per conditional shows here.
func TestDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		txn *tx.Transaction
		pin float64
	}{
		{workload.Transfer("T1", tx.Tentative, "a", "b", 5), 21},
		{workload.GuardedTransfer("T2", tx.Tentative, "a", "b", 5), 27},
	} {
		data, err := tx.MarshalTransaction(c.txn)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := tx.UnmarshalTransaction(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.txn.Type, got)
		if got > c.pin {
			t.Errorf("UnmarshalTransaction(%s) allocates %v times, pinned at %v", c.txn.Type, got, c.pin)
		}
	}
}

// TestCopySharesCompiledSets: a copy made by As — a backed-out transaction
// re-executed at the base — shares its original's compiled sets instead of
// compiling its body again: its footprint is the original's array, and
// executing it allocates exactly what executing the original does. Copies
// execute from two goroutines while a third reads the footprints, so that
// -race sees any write into the shared sets.
func TestCopySharesCompiledSets(t *testing.T) {
	data, err := tx.MarshalTransaction(workload.GuardedTransfer("T1", tx.Tentative, "a", "b", 5))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := tx.UnmarshalTransaction(data) // compiled by the decoder, as a replayed payload is
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(orig.Footprint())
	cp := orig.As("T1@base", tx.Base)
	if cp.ID != "T1@base" || cp.Kind != tx.Base || cp.Type != orig.Type || orig.ID != "T1" || orig.Kind != tx.Tentative {
		t.Fatalf("copy %s of %s", cp, orig)
	}
	if unsafe.SliceData(cp.Footprint()) != unsafe.SliceData(orig.Footprint()) || !slices.Equal(cp.Footprint(), want) {
		t.Fatalf("the copy's footprint %v is not its original's %v", cp.Footprint(), orig.Footprint())
	}
	exec := func(c *tx.Transaction) float64 {
		s := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 100})
		return testing.AllocsPerRun(100, func() {
			if _, err := c.ExecInPlace(s, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := exec(orig), exec(cp); a != b {
		t.Errorf("executing the copy allocates %v times, the original %v", b, a)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := model.StateOf(map[model.Item]model.Value{"a": 1 << 40, "b": 0})
			for i := range 500 {
				c := orig.As(fmt.Sprintf("T1@%d.%d", g, i), tx.Base)
				if eff, err := c.ExecInPlace(s, nil); err != nil || len(eff.Items) != len(want) {
					t.Errorf("copy %s: %v, %v", c.ID, eff, err)
					return
				}
			}
		}()
	}
	read := make(chan bool)
	go func() {
		same := true
		for {
			select {
			case <-done:
				read <- same
				return
			default:
				same = same && slices.Equal(orig.Footprint(), want) && slices.Equal(cp.Footprint(), want)
			}
		}
	}()
	wg.Wait()
	close(done)
	if !<-read {
		t.Errorf("a footprint changed while copies executed: %v, %v, want %v", orig.Footprint(), cp.Footprint(), want)
	}
}
