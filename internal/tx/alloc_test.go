package tx_test

import (
	"testing"

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
