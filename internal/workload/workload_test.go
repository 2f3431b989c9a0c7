package workload

import (
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Config{Seed: 9})
	g2 := NewGenerator(Config{Seed: 9})
	for i := 0; i < 200; i++ {
		a, b := g1.Txn(tx.Tentative), g2.Txn(tx.Tentative)
		if a.String() != b.String() {
			t.Fatalf("iteration %d diverged:\n%s\n%s", i, a, b)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(Config{Seed: 1})
	g2 := NewGenerator(Config{Seed: 2})
	same := 0
	for i := 0; i < 50; i++ {
		if g1.Txn(tx.Tentative).String() == g2.Txn(tx.Tentative).String() {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratedTransactionsExecute(t *testing.T) {
	g := NewGenerator(Config{Seed: 42, Items: 8})
	s := g.OriginState()
	for i := 0; i < 500; i++ {
		txn := g.Txn(tx.Tentative)
		next, eff, err := txn.Exec(s, nil)
		if err != nil {
			t.Fatalf("generated %s failed: %v", txn, err)
		}
		if len(eff.Writes) > 0 && txn.IsReadOnly() {
			t.Fatalf("%s claims read-only but wrote %v", txn, eff.Writes)
		}
		s = next
	}
}

func TestGeneratedTransactionsNeverBlind(t *testing.T) {
	g := NewGenerator(Config{Seed: 7, Items: 8})
	for i := 0; i < 300; i++ {
		if txn := g.Txn(tx.Tentative); txn.HasBlindWrites() {
			t.Fatalf("generator produced blind writes: %s", txn)
		}
	}
}

func TestReadOnlyFraction(t *testing.T) {
	g := NewGenerator(Config{Seed: 3, PReadOnly: 0.5, PCommutative: 0.3})
	ro := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if g.Txn(tx.Tentative).IsReadOnly() {
			ro++
		}
	}
	if ro < n/3 || ro > 2*n/3 {
		t.Errorf("read-only fraction = %d/%d, want near 1/2", ro, n)
	}
}

func TestCannedProfiles(t *testing.T) {
	s0 := model.StateOf(map[model.Item]model.Value{
		"a": 100, "b": 50, "gate": 500,
	})
	tests := []struct {
		name string
		txn  *tx.Transaction
		item model.Item
		want model.Value
	}{
		{"deposit", Deposit("T", tx.Tentative, "a", 7), "a", 107},
		{"withdraw", Withdraw("T", tx.Tentative, "a", 7), "a", 93},
		{"setprice", SetPrice("T", tx.Tentative, "a", 7), "a", 7},
		{"restock-raises", Restock("T", tx.Tentative, "b", 80), "b", 80},
		{"restock-keeps", Restock("T", tx.Tentative, "b", 20), "b", 50},
		{"accrue", AccrueInterest("T", tx.Tentative, "a", 10), "a", 110},
		{"bonus-fires", Bonus("T", tx.Tentative, "gate", "a", 400, 9), "a", 109},
		{"bonus-skips", Bonus("T", tx.Tentative, "gate", "a", 900, 9), "a", 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, _, err := tt.txn.Exec(s0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Get(tt.item); got != tt.want {
				t.Errorf("%s = %d, want %d", tt.item, got, tt.want)
			}
		})
	}
}

func TestTransferConservation(t *testing.T) {
	s0 := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 50})
	out, _, err := Transfer("T", tx.Tentative, "a", "b", 30).Exec(s0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("a") != 70 || out.Get("b") != 80 {
		t.Errorf("transfer: a=%d b=%d", out.Get("a"), out.Get("b"))
	}
	if out.Get("a")+out.Get("b") != s0.Get("a")+s0.Get("b") {
		t.Error("transfer did not conserve total")
	}
}

func TestGuardedTransferBranches(t *testing.T) {
	rich := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 0})
	out, _, err := GuardedTransfer("T", tx.Tentative, "a", "b", 30).Exec(rich, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("a") != 70 || out.Get("b") != 30 {
		t.Errorf("guarded transfer (funded): a=%d b=%d", out.Get("a"), out.Get("b"))
	}
	poor := model.StateOf(map[model.Item]model.Value{"a": 10, "b": 0})
	out, _, err = GuardedTransfer("T", tx.Tentative, "a", "b", 30).Exec(poor, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("a") != 10 || out.Get("b") != 0 {
		t.Errorf("guarded transfer (unfunded): a=%d b=%d", out.Get("a"), out.Get("b"))
	}
}

func TestCannedInvertibility(t *testing.T) {
	// The additive canned types invert; the overwrite/other types do not.
	invertible := []*tx.Transaction{
		Deposit("T", tx.Tentative, "a", 5),
		Withdraw("T", tx.Tentative, "a", 5),
		Transfer("T", tx.Tentative, "a", "b", 5),
		Bonus("T", tx.Tentative, "gate", "a", 1, 5),
	}
	for _, txn := range invertible {
		if !tx.Invertible(txn) {
			t.Errorf("%s<%s> should be invertible", txn.ID, txn.Type)
		}
	}
	notInvertible := []*tx.Transaction{
		SetPrice("T", tx.Tentative, "a", 5),
		AccrueInterest("T", tx.Tentative, "a", 5),
		Restock("T", tx.Tentative, "a", 5),
		GuardedTransfer("T", tx.Tentative, "a", "b", 5),
	}
	for _, txn := range notInvertible {
		if tx.Invertible(txn) {
			t.Errorf("%s<%s> should not be invertible", txn.ID, txn.Type)
		}
	}
}

func TestItemName(t *testing.T) {
	if got := ItemName(0); got != "d1" {
		t.Errorf("ItemName(0) = %s, want d1", got)
	}
	if got := ItemName(41); got != "d42" {
		t.Errorf("ItemName(41) = %s, want d42", got)
	}
}

func TestRandomBadSetNeverEmpty(t *testing.T) {
	g := NewGenerator(Config{Seed: 4})
	for i := 0; i < 100; i++ {
		if bad := g.RandomBadSet(6, 0.01); len(bad) == 0 {
			t.Fatal("empty bad set")
		}
	}
}

func TestOriginStatePositive(t *testing.T) {
	g := NewGenerator(Config{Seed: 5, Items: 20})
	for it, v := range g.OriginState() {
		if v <= 0 {
			t.Errorf("origin %s = %d, want positive", it, v)
		}
	}
}

func TestHotItemSkew(t *testing.T) {
	g := NewGenerator(Config{Seed: 8, Items: 100, HotItems: 2, PHot: 0.9})
	hot := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if it := g.item(); it == "d1" || it == "d2" {
			hot++
		}
	}
	if hot < n*3/4 {
		t.Errorf("hot accesses = %d/%d, want ~90%%", hot, n)
	}
	// Without skew the hot pair is rare.
	g = NewGenerator(Config{Seed: 8, Items: 100})
	hot = 0
	for i := 0; i < n; i++ {
		if it := g.item(); it == "d1" || it == "d2" {
			hot++
		}
	}
	if hot > n/10 {
		t.Errorf("uniform hot accesses = %d/%d, too many", hot, n)
	}
}
