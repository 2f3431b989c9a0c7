package tiermerge_test

import (
	"fmt"

	"tiermerge"
)

// Example reproduces the package quick start: a mobile node works
// disconnected and reconciles through the merging protocol.
func Example() {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})

	m := tiermerge.NewMobileNode("m1", base)
	if err := m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "acct", 25)); err != nil {
		panic(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Saved, base.Master().Get("acct"))
	// Output: 1 125
}

// ExampleMerge drives the protocol stages directly on the paper's
// Section 3 example.
func ExampleMerge() {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 1, "y": 7, "z": 2})

	b1 := tiermerge.MustNewTransaction("B1", tiermerge.Tentative,
		tiermerge.If(tiermerge.GT(tiermerge.Var("x"), tiermerge.Const(0)),
			tiermerge.Update("y",
				tiermerge.Add(tiermerge.Var("y"), tiermerge.Add(tiermerge.Var("z"), tiermerge.Const(3)))),
		),
	)
	g2 := tiermerge.MustNewTransaction("G2", tiermerge.Tentative,
		tiermerge.Update("x", tiermerge.Sub(tiermerge.Var("x"), tiermerge.Const(1))),
	)
	// A base transaction that conflicts with B1 on y.
	tb := tiermerge.SetPrice("TB1", tiermerge.Base, "y", 0)

	hm, _ := tiermerge.RunHistory(tiermerge.NewHistory(b1, g2), origin)
	hb, _ := tiermerge.RunHistory(tiermerge.NewHistory(tb), origin)
	rep, err := tiermerge.Merge(hm, hb, tiermerge.MergeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("B:", rep.BadIDs)
	fmt.Println("saved:", rep.SavedIDs)
	// Output:
	// B: [B1]
	// saved: [G2]
}

// ExampleAlgorithm2 shows the H4 rewrite: the affected G3 is saved by
// can-precede and the bad B1 carries fix {u}.
func ExampleAlgorithm2() {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"u": 30})

	b1 := tiermerge.MustNewTransaction("B1", tiermerge.Tentative,
		tiermerge.If(tiermerge.GT(tiermerge.Var("u"), tiermerge.Const(10)),
			tiermerge.Update("x", tiermerge.Add(tiermerge.Var("x"), tiermerge.Const(100))),
			tiermerge.Update("y", tiermerge.Sub(tiermerge.Var("y"), tiermerge.Const(20))),
		),
	)
	g2 := tiermerge.MustNewTransaction("G2", tiermerge.Tentative,
		tiermerge.Update("u", tiermerge.Sub(tiermerge.Var("u"), tiermerge.Const(20))))
	g3 := tiermerge.MustNewTransaction("G3", tiermerge.Tentative,
		tiermerge.Update("x", tiermerge.Add(tiermerge.Var("x"), tiermerge.Const(10))),
		tiermerge.Update("z", tiermerge.Add(tiermerge.Var("z"), tiermerge.Const(30))))

	hm, _ := tiermerge.RunHistory(tiermerge.NewHistory(b1, g2, g3), origin)
	res, err := tiermerge.Algorithm2(hm, map[int]bool{0: true}, tiermerge.StaticDetector{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Rewritten)
	// Output: G2 G3 B1^{u=30}
}

// ExampleParseTransaction parses the paper's notation directly.
func ExampleParseTransaction() {
	txn, err := tiermerge.ParseTransaction("B1", tiermerge.Tentative,
		"if x > 0 { y := y + z + 3 }")
	if err != nil {
		panic(err)
	}
	s0 := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 1, "y": 7, "z": 2})
	out, _, err := txn.Exec(s0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Get("y"))
	// Output: 12
}

// ExampleInvert synthesizes a compensating transaction.
func ExampleInvert() {
	dep := tiermerge.Deposit("T", tiermerge.Tentative, "acct", 40)
	inv, err := tiermerge.Invert(dep)
	if err != nil {
		panic(err)
	}
	s := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
	s1, _, _ := dep.Exec(s, nil)
	s2, _, _ := inv.Exec(s1, nil)
	fmt.Println(s1.Get("acct"), s2.Get("acct"))
	// Output: 140 100
}

// ExampleExcise removes a bad transaction from a committed history.
func ExampleExcise() {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"a": 100})
	// A fraudulent withdrawal, discovered after a legitimate deposit to
	// the same account committed on top of it. Both are additive, so the
	// deposit is saved even though it is affected.
	bad := tiermerge.Withdraw("BAD", tiermerge.Tentative, "a", 50)
	good := tiermerge.Deposit("GOOD", tiermerge.Tentative, "a", 10)
	aug, _ := tiermerge.RunHistory(tiermerge.NewHistory(bad, good), origin)

	rep, err := tiermerge.Excise(aug, []string{"BAD"}, tiermerge.RecoveryOptions{Verify: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.SavedIDs, rep.RepairedState.Get("a"))
	// Output: [GOOD] 110
}

// ExampleParseScenarioFile runs a whole merge scenario written in the
// paper's notation.
func ExampleParseScenarioFile() {
	sc, err := tiermerge.ParseScenarioFile(`
origin { x = 1; y = 7; z = 2 }
mobile tx B1 { if x > 0 { y := y + z + 3 } }
mobile tx G2 { x := x - 1 }
base tx TB1 { y := y * 2 }
`)
	if err != nil {
		panic(err)
	}
	hm, _ := tiermerge.RunHistory(tiermerge.NewHistory(sc.Mobile...), sc.Origin)
	hb, _ := tiermerge.RunHistory(tiermerge.NewHistory(sc.Base...), sc.Origin)
	rep, err := tiermerge.Merge(hm, hb, tiermerge.MergeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("B:", rep.BadIDs, "saved:", rep.SavedIDs)
	// Output: B: [B1] saved: [G2]
}

// ExampleServe reconciles a mobile client over the message channel.
func ExampleServe() {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	srv := tiermerge.Serve(base)
	defer srv.Close()

	c, err := tiermerge.DialBase("m1", srv)
	if err != nil {
		panic(err)
	}
	if err := c.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "acct", 25)); err != nil {
		panic(err)
	}
	out, err := c.ConnectMerge()
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Saved, base.Master().Get("acct"))
	// Output: 1 125
}
