package sim

import "testing"

// TestDurableCrashSweep drives a base day through the durable engine's
// checkpoint + truncation cycle and kills it at every record boundary,
// every tail byte, and every mid-rotation step, pinning each recovery
// byte-identical to a full-log replay of the same history.
func TestDurableCrashSweep(t *testing.T) {
	res, err := RunDurableCrashSweep(DurableCrashSweep{
		CrashSweep: CrashSweep{Seed: 8, SkipByteSweep: testing.Short()},
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.KillPoints == 0 || res.RotationKillPoints == 0 || res.Recoveries == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
	if !testing.Short() && res.ByteKillPoints == 0 {
		t.Fatalf("byte sweep exercised nothing: %s", res)
	}
	// The cuts must have produced torn final records — the case
	// checkpointed recovery is most likely to get wrong.
	if res.TornTails == 0 {
		t.Errorf("sweep missed torn tails: %s", res)
	}
}

// TestDurableCrashSweepReprocessingWorkload re-runs the record-boundary
// sweep over an all-commutative workload, whose delta records take a
// different replay path.
func TestDurableCrashSweepDeltaWorkload(t *testing.T) {
	res, err := RunDurableCrashSweep(DurableCrashSweep{
		CrashSweep: CrashSweep{Seed: 9, PCommutative: 1, SkipByteSweep: true},
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.KillPoints == 0 || res.RotationKillPoints == 0 {
		t.Fatalf("sweep exercised nothing: %s", res)
	}
}
