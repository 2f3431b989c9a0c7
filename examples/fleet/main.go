// Command fleet reproduces the paper's Section 7.1 argument at scale: it
// simulates growing fleets of mobile nodes reconciling against one base
// tier, under both the original two-tier reprocessing protocol and the
// merging protocol, and prints the cost crossover. When most tentative work
// survives the merge (big SAV), merging wins on base-tier compute and I/O;
// when conflicts back out almost everything (tiny SAV), reprocessing is the
// cheaper protocol — exactly the paper's conclusion.
package main

import (
	"fmt"
	"log"

	"tiermerge"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== fleet sweep: base cost vs number of mobile nodes ===")
	fmt.Printf("%8s %14s %14s %10s %10s\n",
		"mobiles", "merge-base", "reproc-base", "saved", "backedout")
	for _, mobiles := range []int{2, 4, 8, 16, 32} {
		mr, rr, err := pair(tiermerge.Scenario{
			Seed: 42, Mobiles: mobiles, Rounds: 3, TxnsPerRound: 8,
			Items: 512, PCommutative: 0.7,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %14d %14d %10d %10d\n",
			mobiles, mr.Cost.BaseCompute, rr.Cost.BaseCompute,
			mr.Counts.TxnsSaved, mr.Counts.TxnsBackedOut)
	}

	fmt.Println("\n=== conflict sweep: shrinking the database raises conflicts ===")
	fmt.Printf("%8s %10s %14s %14s %12s\n",
		"items", "saved%", "merge-total", "reproc-total", "winner")
	for _, items := range []int{1024, 256, 64, 16, 4} {
		mr, rr, err := pair(tiermerge.Scenario{
			Seed: 7, Mobiles: 8, Rounds: 3, TxnsPerRound: 6,
			Items: items, PCommutative: 0.7,
		})
		if err != nil {
			return err
		}
		savedPct := 100 * float64(mr.Counts.TxnsSaved) / float64(mr.TentativeRun)
		winner := "merging"
		if rr.Cost.Total() < mr.Cost.Total() {
			winner = "reprocessing"
		}
		fmt.Printf("%8d %9.1f%% %14d %14d %12s\n",
			items, savedPct, mr.Cost.Total(), rr.Cost.Total(), winner)
	}

	fmt.Println("\n=== concurrent fleet (goroutine per mobile) ===")
	r, err := tiermerge.RunScenario(tiermerge.Scenario{
		Seed: 99, Mobiles: 24, Rounds: 4, TxnsPerRound: 6,
		Items: 512, Mode: tiermerge.ConcurrentMode,
	})
	if err != nil {
		return err
	}
	fmt.Println("counters:", r.Counts)
	fmt.Println("cost:    ", r.Cost)
	return nil
}

// pair runs the same scenario under both protocols.
func pair(sc tiermerge.Scenario) (mergeRes, reprocRes *tiermerge.ScenarioResult, err error) {
	sc.Protocol = tiermerge.MergingProtocol
	mergeRes, err = tiermerge.RunScenario(sc)
	if err != nil {
		return nil, nil, err
	}
	sc.Protocol = tiermerge.ReprocessingProtocol
	reprocRes, err = tiermerge.RunScenario(sc)
	if err != nil {
		return nil, nil, err
	}
	return mergeRes, reprocRes, nil
}
