package sim

import (
	"errors"
	"fmt"
	"testing"

	"tiermerge/internal/replica"
)

func TestRunDeterministic(t *testing.T) {
	sc := Scenario{Seed: 1, Mobiles: 3, Rounds: 2, TxnsPerRound: 4}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.FinalMaster.Equal(r2.FinalMaster) {
		t.Error("serial runs with the same seed diverged")
	}
	if r1.Counts != r2.Counts {
		t.Errorf("counters diverged:\n%+v\n%+v", r1.Counts, r2.Counts)
	}
	if r1.TentativeRun != 3*2*4 {
		t.Errorf("tentative run = %d, want 24", r1.TentativeRun)
	}
}

func TestMergingReducesReprocessing(t *testing.T) {
	base := Scenario{Seed: 7, Mobiles: 6, Rounds: 3, TxnsPerRound: 6, Items: 128}
	mergeSc := base
	mergeSc.Protocol = Merging
	reprSc := base
	reprSc.Protocol = Reprocessing

	mr, err := Run(mergeSc)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(reprSc)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Counts.TxnsReprocessed != rr.TentativeRun {
		t.Errorf("reprocessing re-executed %d of %d", rr.Counts.TxnsReprocessed, rr.TentativeRun)
	}
	if mr.Counts.TxnsReprocessed >= rr.Counts.TxnsReprocessed {
		t.Errorf("merging reprocessed %d, reprocessing %d — merging must reprocess fewer",
			mr.Counts.TxnsReprocessed, rr.Counts.TxnsReprocessed)
	}
	if mr.Counts.TxnsSaved == 0 {
		t.Error("merging saved nothing")
	}
	if mr.Counts.TxnsSaved+mr.Counts.TxnsBackedOut != mr.TentativeRun {
		t.Errorf("saved %d + backed out %d != run %d",
			mr.Counts.TxnsSaved, mr.Counts.TxnsBackedOut, mr.TentativeRun)
	}
	// The headline claim: base-tier compute cost shrinks under merging.
	if mr.Cost.BaseCompute >= rr.Cost.BaseCompute {
		t.Errorf("merging base cost %d >= reprocessing %d",
			mr.Cost.BaseCompute, rr.Cost.BaseCompute)
	}
}

func TestStrategy1ProducesFallbacks(t *testing.T) {
	base := Scenario{Seed: 3, Mobiles: 6, Rounds: 3, TxnsPerRound: 4, Items: 32}
	s1 := base
	s1.Origin = replica.Strategy1
	s2 := base
	s2.Origin = replica.Strategy2

	r1, err := Run(s1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts.MergeFallbacks == 0 {
		t.Error("Strategy 1 produced no merge fallbacks; anomaly not exercised")
	}
	if r2.Counts.MergeFallbacks != 0 {
		t.Errorf("Strategy 2 produced %d fallbacks, want 0", r2.Counts.MergeFallbacks)
	}
}

func TestWindowAdvancementBoundsHistory(t *testing.T) {
	noWin := Scenario{Seed: 5, Mobiles: 4, Rounds: 6, TxnsPerRound: 4, Items: 48}
	withWin := noWin
	withWin.WindowEveryRounds = 2

	rNo, err := Run(noWin)
	if err != nil {
		t.Fatal(err)
	}
	rWin, err := Run(withWin)
	if err != nil {
		t.Fatal(err)
	}
	// Windowed runs re-anchor origins, so merges compare against shorter
	// base histories: fewer graph operations at the base.
	if rWin.Counts.BaseGraphOps >= rNo.Counts.BaseGraphOps {
		t.Errorf("windowed graph ops %d >= unwindowed %d",
			rWin.Counts.BaseGraphOps, rNo.Counts.BaseGraphOps)
	}
	// Nothing is lost: every tentative transaction is accounted for.
	for _, r := range []*Result{rNo, rWin} {
		if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut+r.Counts.TxnsReprocessed < r.TentativeRun {
			t.Errorf("transactions unaccounted: %+v run=%d", r.Counts, r.TentativeRun)
		}
	}
}

func TestConcurrentRunCompletes(t *testing.T) {
	sc := Scenario{
		Seed: 9, Mobiles: 8, Rounds: 3, TxnsPerRound: 5, Items: 64,
		Mode: Concurrent,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.TentativeRun != 8*3*5 {
		t.Errorf("tentative run = %d, want 120", r.TentativeRun)
	}
	if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut != r.TentativeRun {
		t.Errorf("saved %d + backed out %d != run %d",
			r.Counts.TxnsSaved, r.Counts.TxnsBackedOut, r.TentativeRun)
	}
	if r.Counts.MergesPerformed == 0 {
		t.Error("no merges performed")
	}
}

func TestConcurrentReprocessing(t *testing.T) {
	sc := Scenario{
		Seed: 11, Mobiles: 6, Rounds: 2, TxnsPerRound: 4,
		Protocol: Reprocessing, Mode: Concurrent,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.TxnsReprocessed != r.TentativeRun {
		t.Errorf("reprocessed %d of %d", r.Counts.TxnsReprocessed, r.TentativeRun)
	}
}

// TestCrashInjectionRecoversFromJournals: crashed mobiles reconcile via
// WAL recovery; no tentative work is lost or double-counted.
func TestCrashInjectionRecoversFromJournals(t *testing.T) {
	sc := Scenario{
		Seed: 13, Mobiles: 5, Rounds: 4, TxnsPerRound: 4, Items: 64,
		PCrash: 0.5,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Crashes == 0 {
		t.Fatal("no crashes injected at PCrash=0.5")
	}
	if r.TentativeRun != 5*4*4 {
		t.Errorf("tentative run = %d, want 80", r.TentativeRun)
	}
	if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut != r.TentativeRun {
		t.Errorf("accounting broken: saved %d + backed out %d != %d",
			r.Counts.TxnsSaved, r.Counts.TxnsBackedOut, r.TentativeRun)
	}
	// Determinism holds with crash injection too.
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FinalMaster.Equal(r2.FinalMaster) || r.Crashes != r2.Crashes {
		t.Error("crash-injected runs diverged across identical seeds")
	}
}

// TestAcceptancePlumbsThroughScenario: a strict criterion turns conflicted
// re-executions into reported failures.
func TestAcceptancePlumbsThroughScenario(t *testing.T) {
	base := Scenario{Seed: 17, Mobiles: 4, Rounds: 3, TxnsPerRound: 5, Items: 16}
	lax, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	strictSc := base
	strictSc.Acceptance = replica.AcceptSameWrites
	strict, err := Run(strictSc)
	if err != nil {
		t.Fatal(err)
	}
	if strict.FailedReexecutions <= lax.FailedReexecutions {
		t.Errorf("strict acceptance failed %d <= lax %d",
			strict.FailedReexecutions, lax.FailedReexecutions)
	}
}

// TestHotSkewRaisesConflicts: concentrating accesses on a hot set must
// increase back-outs relative to a uniform workload.
func TestHotSkewRaisesConflicts(t *testing.T) {
	uniform := Scenario{Seed: 23, Mobiles: 6, Rounds: 3, TxnsPerRound: 5, Items: 256}
	skewed := uniform
	skewed.HotItems = 4
	skewed.PHot = 0.9
	ru, err := Run(uniform)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counts.TxnsBackedOut <= ru.Counts.TxnsBackedOut {
		t.Errorf("skewed back-outs %d <= uniform %d",
			rs.Counts.TxnsBackedOut, ru.Counts.TxnsBackedOut)
	}
}

// TestMessagePassingMode drives the fleet through the in-process transport and
// checks accounting plus real wire traffic.
func TestMessagePassingMode(t *testing.T) {
	r, err := Run(Scenario{
		Seed: 29, Mobiles: 6, Rounds: 3, TxnsPerRound: 4, Items: 64,
		Mode: Messages,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TentativeRun != 6*3*4 {
		t.Errorf("tentative run = %d, want 72", r.TentativeRun)
	}
	if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut != r.TentativeRun {
		t.Errorf("accounting: saved %d + backedout %d != %d",
			r.Counts.TxnsSaved, r.Counts.TxnsBackedOut, r.TentativeRun)
	}
	if r.WireRequests == 0 || r.WireBytes == 0 {
		t.Errorf("no wire traffic recorded: reqs=%d bytes=%d", r.WireRequests, r.WireBytes)
	}
	// Real wire bytes should be the same order of magnitude as the modeled
	// communication bytes (both count journals/updates/results).
	if r.WireBytes < r.Counts.Bytes/10 || r.WireBytes > r.Counts.Bytes*50 {
		t.Errorf("wire bytes %d wildly off modeled %d", r.WireBytes, r.Counts.Bytes)
	}
}

// TestSkipConnectAccumulatesHistory: offline rounds pile work into bigger
// merges but nothing is lost by the end.
func TestSkipConnectAccumulatesHistory(t *testing.T) {
	base := Scenario{Seed: 31, Mobiles: 4, Rounds: 5, TxnsPerRound: 4, Items: 64}
	skip := base
	skip.PSkipConnect = 0.6
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(skip)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counts.MergesPerformed >= rb.Counts.MergesPerformed {
		t.Errorf("skipping produced %d merges, baseline %d — expected fewer, bigger merges",
			rs.Counts.MergesPerformed, rb.Counts.MergesPerformed)
	}
	for _, r := range []*Result{rb, rs} {
		if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut != r.TentativeRun {
			t.Errorf("accounting broken: %+v vs run %d", r.Counts, r.TentativeRun)
		}
	}
}

// TestMessagePassingWithLoss: a lossy transport (every 5th response
// dropped) still reconciles every transaction exactly once.
func TestMessagePassingWithLoss(t *testing.T) {
	r, err := Run(Scenario{
		Seed: 37, Mobiles: 4, Rounds: 3, TxnsPerRound: 4, Items: 64,
		Mode: Messages, DropEveryNth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.TxnsSaved+r.Counts.TxnsBackedOut != r.TentativeRun {
		t.Errorf("loss broke exactly-once accounting: saved %d + backedout %d != %d",
			r.Counts.TxnsSaved, r.Counts.TxnsBackedOut, r.TentativeRun)
	}
}

// TestEveryModeHonoursEveryKnob: every fleet knob either shows its effect
// in every mode, on either tier, or is refused by Run with ErrBadConfig —
// never silently dropped. Each knob's run is compared with the same mode
// and tier without it; the margins hold under any goroutine schedule.
func TestEveryModeHonoursEveryKnob(t *testing.T) {
	type cell struct {
		mode   Mode
		shards int
	}
	savedShare := func(r *Result) float64 { return float64(r.Counts.TxnsSaved) / float64(r.TentativeRun) }
	connects := func(r *Result) int64 { return r.Counts.MergesPerformed + r.Counts.MergeFallbacks }
	knobs := []struct {
		name string
		set  func(*Scenario)
		// refused reports the cells that must refuse the knob.
		refused func(cell) bool
		shows   func(t *testing.T, got, ref *Result)
	}{
		{
			name:    "hot",
			set:     func(sc *Scenario) { sc.HotItems, sc.PHot = 2, 1 },
			refused: func(c cell) bool { return c.shards > 0 },
			shows: func(t *testing.T, got, ref *Result) {
				if savedShare(got) > 0.6*savedShare(ref) {
					t.Errorf("hot skew saved %.2f of the run, uniform %.2f: want at most 60%% of it", savedShare(got), savedShare(ref))
				}
			},
		},
		{
			name: "window",
			set: func(sc *Scenario) {
				sc.WindowEveryRounds, sc.Origin = 1, replica.Strategy1
			},
			refused: func(cell) bool { return false },
			shows: func(t *testing.T, got, _ *Result) {
				if got.Counts.MergeFallbacks == 0 {
					t.Error("a window advance every round under Strategy 1 produced no fallbacks")
				}
			},
		},
		{
			name:    "crash",
			set:     func(sc *Scenario) { sc.PCrash = 1 },
			refused: func(c cell) bool { return c.mode.wired() || c.shards > 0 },
			shows: func(t *testing.T, got, _ *Result) {
				want := int64(got.Scenario.Mobiles * got.Scenario.Rounds)
				if got.Crashes != want || got.Counts.Recoveries != want {
					t.Errorf("crashes %d, recoveries %d at PCrash 1, want %d", got.Crashes, got.Counts.Recoveries, want)
				}
			},
		},
		{
			name:    "skip",
			set:     func(sc *Scenario) { sc.PSkipConnect = 0.5 },
			refused: func(cell) bool { return false },
			shows: func(t *testing.T, got, ref *Result) {
				if connects(got) >= connects(ref) {
					t.Errorf("skipping connects left %d merges, %d without: want fewer", connects(got), connects(ref))
				}
			},
		},
		{
			// One mobile: the drop schedule counts mobile-facing
			// responses, so a lone client's retry never meets a second
			// drop and the run cannot exhaust its retries.
			name:    "drop",
			set:     func(sc *Scenario) { sc.DropEveryNth, sc.Mobiles = 2, 1 },
			refused: func(c cell) bool { return !c.mode.wired() },
			shows: func(t *testing.T, got, _ *Result) {
				if c := got.Counts; c.TxnsSaved+c.TxnsBackedOut != got.TentativeRun {
					t.Errorf("lossy transport: saved %d + backed out %d != run %d", c.TxnsSaved, c.TxnsBackedOut, got.TentativeRun)
				}
			},
		},
		{
			name:    "cross",
			set:     func(sc *Scenario) { sc.PCrossShard = 0.5 },
			refused: func(c cell) bool { return c.shards == 0 },
			shows: func(t *testing.T, got, _ *Result) {
				if got.Counts.CrossShardMerges == 0 {
					t.Error("PCrossShard 0.5 produced no cross-shard merges")
				}
			},
		},
	}
	for _, shards := range []int{0, 2} {
		for _, mode := range []Mode{Serial, Concurrent, Messages, TCP} {
			c := cell{mode, shards}
			base := Scenario{Seed: 43, Mode: mode, Shards: shards, Mobiles: 4, Rounds: 3, TxnsPerRound: 5, Items: 256}
			ref, err := Run(base)
			if err != nil {
				t.Fatalf("%v shards=%d: %v", mode, shards, err)
			}
			for _, k := range knobs {
				t.Run(fmt.Sprintf("shards%d/%v/%s", shards, mode, k.name), func(t *testing.T) {
					sc := base
					k.set(&sc)
					got, err := Run(sc)
					if k.refused(c) {
						if !errors.Is(err, replica.ErrBadConfig) {
							t.Fatalf("err = %v, want ErrBadConfig", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					k.shows(t, got, ref)
				})
			}
		}
	}
}
