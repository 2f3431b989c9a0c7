// Benchmarks for the reproduction suite: one bench per experiment kernel
// (E0..E9, E14; E10-E12 are timed by the ablation benches, see DESIGN.md) plus
// micro-benchmarks for the algorithmic pieces whose asymptotic costs
// Section 7.1 discusses (graph construction, the O(n^2) rewriting pass,
// pruning).
//
// Run with:
//
//	go test -bench=. -benchmem ./...
package tiermerge_test

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"tiermerge"
	"tiermerge/internal/eager"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/prune"
	"tiermerge/internal/replica"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/sim"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// benchHistories builds a deterministic conflicting history pair of the
// given lengths.
func benchHistories(b *testing.B, items, nm, nb int) (hm, hb *history.Augmented) {
	b.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: 1234, Items: items, PCommutative: 0.7})
	origin := gen.OriginState()
	hm, err := gen.RunHistory(tx.Tentative, nm, origin)
	if err != nil {
		b.Fatal(err)
	}
	hb, err = gen.RunHistory(tx.Base, nb, origin)
	if err != nil {
		b.Fatal(err)
	}
	return hm, hb
}

// benchBadSet derives a bad set from the precedence graph so rewriting
// benches exercise realistic back-outs.
func benchBadSet(b *testing.B, hm, hb *history.Augmented) map[int]bool {
	b.Helper()
	g := graph.BuildFromHistories(hm, hb)
	bad, err := (graph.TwoCycle{}).ComputeB(g)
	if err != nil {
		b.Fatal(err)
	}
	set := make(map[int]bool, len(bad))
	for _, v := range bad {
		set[v] = true
	}
	return set
}

// BenchmarkE1PrecedenceGraph times building Figure 1's graph and computing
// its back-out set.
func BenchmarkE1PrecedenceGraph(b *testing.B) {
	e := papertest.NewExample1()
	am, err := history.Run(history.New(e.Mobile()...), e.Origin)
	if err != nil {
		b.Fatal(err)
	}
	ab, err := history.Run(history.New(e.BaseTxns()...), e.Origin)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.BuildFromHistories(am, ab)
		if _, err := (graph.TwoCycle{}).ComputeB(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2FixExecution times transaction execution with and without a
// fix (the Definition 1 read-override path).
func BenchmarkE2FixExecution(b *testing.B) {
	h := papertest.NewH4()
	for _, tc := range []struct {
		name string
		fix  tx.Fix
	}{
		{"empty-fix", nil},
		{"with-fix", tx.Fix{"u": 30}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := h.B1.Exec(h.Origin, tc.fix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Rewrite times the three rewriters on H4.
func BenchmarkE3Rewrite(b *testing.B) {
	h := papertest.NewH4()
	a, err := history.Run(history.New(h.Txns()...), h.Origin)
	if err != nil {
		b.Fatal(err)
	}
	bad := map[int]bool{0: true}
	b.Run("algorithm1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.Algorithm1(a, bad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("algorithm2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.Algorithm2(a, bad, rewrite.StaticDetector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cbtr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.CBTR(a, bad, rewrite.StaticDetector{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5CanFollow times Algorithm 1 across history lengths,
// demonstrating the O(n^2) rewriting bound of Section 7.1.
func BenchmarkE5CanFollow(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			hm, hb := benchHistories(b, 64, n, 8)
			bad := benchBadSet(b, hm, hb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Algorithm1(hm, bad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6SavedSeries times Algorithm 2 (the saved-series kernel) across
// commutativity mixes.
func BenchmarkE6SavedSeries(b *testing.B) {
	for _, pc := range []float64{0.3, 0.9} {
		b.Run(fmt.Sprintf("pcommut=%.1f", pc), func(b *testing.B) {
			gen := workload.NewGenerator(workload.Config{Seed: 77, Items: 12, PCommutative: pc})
			origin := gen.OriginState()
			hm, err := gen.RunHistory(tx.Tentative, 16, origin)
			if err != nil {
				b.Fatal(err)
			}
			bad := gen.RandomBadSet(16, 0.2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Algorithm2(hm, bad, rewrite.StaticDetector{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Windows times whole scenarios across resynchronization window
// lengths (the Section 2.2 trade-off).
func BenchmarkE7Windows(b *testing.B) {
	for _, win := range []int{1, 4, 0} {
		name := fmt.Sprintf("windowEvery=%d", win)
		if win == 0 {
			name = "windowEvery=never"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Scenario{
					Seed: 7, Mobiles: 4, Rounds: 6, TxnsPerRound: 4, Items: 32,
					WindowEveryRounds: win,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8ProtocolComparison times whole scenarios under both protocols;
// the per-op time difference mirrors the Section 7.1 cost comparison on the
// real substrate (not just the abstract weights).
func BenchmarkE8ProtocolComparison(b *testing.B) {
	for _, tc := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"merging", sim.Merging},
		{"reprocessing", sim.Reprocessing},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Scenario{
					Seed: 42, Mobiles: 8, Rounds: 3, TxnsPerRound: 6,
					Items: 256, Protocol: tc.proto,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9BackoutStrategies times each back-out strategy on a shared
// conflicting graph.
func BenchmarkE9BackoutStrategies(b *testing.B) {
	hm, hb := benchHistories(b, 8, 12, 8)
	g := graph.BuildFromHistories(hm, hb)
	for _, s := range []graph.Strategy{
		graph.TwoCycle{}, graph.GreedyCost{}, graph.GreedyDegree{},
		graph.Exhaustive{MaxCandidates: 18}, graph.AllCyclic{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.ComputeB(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphBuild scales precedence-graph construction.
func BenchmarkGraphBuild(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			hm, hb := benchHistories(b, 128, n, n/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.BuildFromHistories(hm, hb)
			}
		})
	}
}

// BenchmarkMergeEndToEnd times the full six-step merging protocol.
func BenchmarkMergeEndToEnd(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			hm, hb := benchHistories(b, 64, n, n/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := merge.Merge(hm, hb, merge.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrune times both pruning approaches on a commutative history.
func BenchmarkPrune(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 5, Items: 16, PCommutative: 1.0})
	origin := gen.OriginState()
	hm, err := gen.RunHistory(tx.Tentative, 16, origin)
	if err != nil {
		b.Fatal(err)
	}
	bad := gen.RandomBadSet(16, 0.25)
	res, err := rewrite.Algorithm2(hm, bad, rewrite.StaticDetector{})
	if err != nil {
		b.Fatal(err)
	}
	final := hm.Final()
	b.Run("compensation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := prune.ByCompensation(res, final); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("undo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := prune.ByUndo(res, final); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reexecute-oracle", func(b *testing.B) {
		b.ReportAllocs()
		repaired := res.Repaired()
		for i := 0; i < b.N; i++ {
			if _, err := history.Run(repaired, origin); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetectors compares the static and dynamic can-precede detectors
// on the H4 pair.
func BenchmarkDetectors(b *testing.B) {
	h := papertest.NewH4()
	fix := tx.Fix{"u": 30}
	b.Run("static", func(b *testing.B) {
		det := rewrite.StaticDetector{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !det.CanPrecede(h.G3, h.B1, fix) {
				b.Fatal("unexpected rejection")
			}
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		gen := workload.NewGenerator(workload.Config{Seed: 3})
		det := &rewrite.DynamicDetector{Rng: gen.Rand(), Samples: 32}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !det.CanPrecede(h.G3, h.B1, fix) {
				b.Fatal("unexpected rejection")
			}
		}
	})
}

// BenchmarkPublicAPIQuickstart times the README quick-start path through
// the public facade.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
		m := tiermerge.NewMobileNode("m1", base)
		if err := m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "acct", 25)); err != nil {
			b.Fatal(err)
		}
		if _, err := m.ConnectMerge(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE0EagerInstability times the motivation simulation at two fleet
// scales; the superlinear slowdown mirrors the deadlock blow-up.
func BenchmarkE0EagerInstability(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eager.Run(eager.Config{Seed: 7, Nodes: n})
			}
		})
	}
}

// BenchmarkE14CrashRecovery times the crash-recovery path: "recover"
// rebuilds a node by replaying its journal (scan + re-execute + integrity
// check, the WalRecordsReplayed × ReplayRecordCost column of E14), the
// protocol variants run whole crash-heavy scenarios (every period dies and
// recovers before reconciling) so the per-op gap prices recovery-plus-merge
// against recovery-plus-reprocess on the real substrate.
func BenchmarkE14CrashRecovery(b *testing.B) {
	for _, txns := range []int{8, 64} {
		b.Run(fmt.Sprintf("recover/txns=%d", txns), func(b *testing.B) {
			gen := workload.NewGenerator(workload.Config{Seed: 14, Items: 64, PCommutative: 0.7})
			cluster := replica.NewBaseCluster(gen.OriginState(), replica.Config{})
			m := replica.NewMobileNode("m1", cluster)
			var journal bytes.Buffer
			if err := m.AttachJournal(&journal); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < txns; k++ {
				if err := m.Run(gen.Txn(tx.Tentative)); err != nil {
					b.Fatal(err)
				}
			}
			data := journal.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := replica.RecoverMobileNode("m1", bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, tc := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"merging", sim.Merging},
		{"reprocessing", sim.Reprocessing},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Scenario{
					Seed: 14, Mobiles: 4, Rounds: 3, TxnsPerRound: 16,
					Items: 256, PCommutative: 0.7, PCrash: 1.0, Protocol: tc.proto,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16ShardedFleet measures the sharded base tier: a 64-mobile
// fleet of disjoint deposit histories reconnects concurrently against 1,
// 2, 4 and 8 shards, all-disjoint and with ~10% of mobiles carrying one
// cross-shard transfer. The fleet checks out, the base commits 2048
// deposits while they are away, then every mobile merges at once. Once a
// cross-shard transfer installs, every later merge spans every shard and
// extends the tier's combined index. The merges/s metric is the E16
// headline (EXPERIMENTS.md E16).
func BenchmarkE16ShardedFleet(b *testing.B) {
	const mobiles, txns, warmup = 64, 3, 2048
	origin := model.State{}
	for i := 0; i < mobiles; i++ {
		origin.Set(model.Item(fmt.Sprintf("m%d.acct", i)), 100)
	}
	item := func(i int) model.Item { return model.Item(fmt.Sprintf("m%d.acct", i)) }
	for _, shards := range []int{1, 2, 4, 8} {
		router := replica.NewShardedBase(origin, shards, replica.Config{}).Router()
		// crossPartner: the first other mobile whose account hashes to a
		// different shard (next mobile when there is only one shard).
		crossPartner := func(i int) int {
			for d := 1; d < mobiles; d++ {
				j := (i + d) % mobiles
				if router.Shard(item(j)) != router.Shard(item(i)) {
					return j
				}
			}
			return (i + 1) % mobiles
		}
		for _, crossPct := range []int{0, 10} {
			hms := make([]*history.Augmented, mobiles)
			for i := range hms {
				h := &history.History{}
				for k := 0; k < txns; k++ {
					h.Append(workload.Deposit(fmt.Sprintf("T%d.%d", i, k), tx.Tentative, item(i), 1))
				}
				if crossPct > 0 && i%(100/crossPct) == 0 {
					h.Append(workload.Transfer(fmt.Sprintf("X%d", i), tx.Tentative, item(i), item(crossPartner(i)), 1))
				}
				a, err := history.Run(h, origin)
				if err != nil {
					b.Fatal(err)
				}
				hms[i] = a
			}
			b.Run(fmt.Sprintf("shards=%d/cross=%d%%", shards, crossPct), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					s := replica.NewShardedBase(origin, shards, replica.Config{})
					cks := make([]replica.Checkout, mobiles)
					for i := range cks {
						cks[i] = s.CheckoutReplica(fmt.Sprintf("m%d", i))
					}
					for w := 0; w < warmup; w++ {
						if err := s.ExecBase(workload.Deposit(fmt.Sprintf("B%d", w), tx.Base, item(w%mobiles), 1)); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					var wg sync.WaitGroup
					wg.Add(mobiles)
					for i := 0; i < mobiles; i++ {
						go func(i int) {
							defer wg.Done()
							if _, err := s.Merge(cks[i], hms[i]); err != nil {
								b.Error(err)
							}
						}(i)
					}
					wg.Wait()
				}
				b.ReportMetric(float64(b.N*mobiles)/b.Elapsed().Seconds(), "merges/s")
			})
		}
	}
}

// BenchmarkE17WireTransport times the same fleet scenario over the
// in-process channel transport and over real loopback TCP, reporting the
// measured byte accounting alongside the time: payload bytes per run,
// on-wire frame bytes per run (TCP only) and the framing overhead they
// imply — the E17 headline, the cost of deploying the mobile fleet as
// separate processes.
func BenchmarkE17WireTransport(b *testing.B) {
	base := sim.Scenario{
		Seed: 321, Mobiles: 6, Rounds: 3, TxnsPerRound: 5, Items: 64, ServerWorkers: 4,
	}
	for _, mode := range []string{"chan", "tcp"} {
		sc := base
		if mode == "tcp" {
			sc.WireTCP = true
		} else {
			sc.MessagePassing = true
		}
		b.Run("transport="+mode, func(b *testing.B) {
			b.ReportAllocs()
			var reqs, payload, frames int64
			for n := 0; n < b.N; n++ {
				res, err := sim.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				reqs += res.WireRequests
				payload += res.WireBytes
				frames += res.WireFrameBytes
			}
			b.ReportMetric(float64(reqs)/float64(b.N), "requests/op")
			b.ReportMetric(float64(payload)/float64(b.N), "payload_B/op")
			if frames > 0 {
				b.ReportMetric(float64(frames)/float64(b.N), "wire_B/op")
				b.ReportMetric(100*float64(frames-payload)/float64(payload), "overhead_%")
			}
		})
	}
}

// BenchmarkE18DeltaMerge times the E18 counter fleet (all-commutative,
// hot-item contended) in both arms: increments merged as first-class
// deltas vs the DisableDeltas value-write baseline. Beyond wall clock,
// each arm reports its back-out, elision and folding tallies per run —
// benchreport's e18 summary turns the pair into the headline reduction.
func BenchmarkE18DeltaMerge(b *testing.B) {
	base := sim.Scenario{
		Seed: 18, Mobiles: 6, Rounds: 3, TxnsPerRound: 5,
		BaseTxnsPerRound: 2, Items: 24, HotItems: 4, PHot: 0.6,
		PCommutative: 1, WindowEveryRounds: 2,
	}
	for _, arm := range []string{"delta", "value"} {
		sc := base
		if arm == "value" {
			sc.MergeOptions = merge.Options{DisableDeltas: true}
		}
		b.Run("arm="+arm, func(b *testing.B) {
			b.ReportAllocs()
			var backouts, elided, folded, graphOps int64
			for n := 0; n < b.N; n++ {
				res, err := sim.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				backouts += res.Counts.TxnsBackedOut
				elided += res.Counts.EdgesElided
				folded += res.Counts.DeltaFolded
				graphOps += res.Counts.BaseGraphOps
			}
			b.ReportMetric(float64(backouts)/float64(b.N), "backouts/op")
			b.ReportMetric(float64(elided)/float64(b.N), "elided/op")
			b.ReportMetric(float64(folded)/float64(b.N), "folded/op")
			b.ReportMetric(float64(graphOps)/float64(b.N), "graph_ops/op")
		})
	}
}

// e19Day commits a deterministic base day — windows of transactions with
// window advances between them — on cluster, checkpointing every ckptEvery
// windows (0 = never).
func e19Day(b *testing.B, cluster *replica.BaseCluster, windows, perWindow, ckptEvery int) {
	b.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: 19, Items: 32, PCommutative: 0.5})
	n := 0
	for w := 0; w < windows; w++ {
		if w > 0 {
			cluster.AdvanceWindow()
		}
		if ckptEvery > 0 && w > 0 && w%ckptEvery == 0 {
			if err := cluster.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < perWindow; i++ {
			t := gen.Txn(tx.Base)
			t.ID = fmt.Sprintf("T%d", n)
			n++
			if err := cluster.ExecBase(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE19DurableStore times the durable engine's two axes (DESIGN.md
// §14). backend=mem|disk commit the identical day on an in-memory and a
// durable cluster, without and with the segmented log underneath (the disk arm pays a
// sync-before-ack fsync per commit). recover=full|ckpt time a restart:
// replaying a full-history journal vs the checkpoint + tail a rotated
// segment log leaves behind, with the log bytes each must read reported
// alongside — benchreport's e19 summary turns the pairs into the headline
// recovery speedup and log-size reduction.
func BenchmarkE19DurableStore(b *testing.B) {
	const windows, perWindow = 8, 8
	gen := workload.NewGenerator(workload.Config{Seed: 19, Items: 32, PCommutative: 0.5})
	origin := gen.OriginState()
	cfg := tiermerge.ClusterConfig{Weights: tiermerge.DefaultCostWeights()}

	for _, backend := range []string{"mem", "disk"} {
		b.Run("backend="+backend, func(b *testing.B) {
			b.ReportAllocs()
			var logBytes int64
			for n := 0; n < b.N; n++ {
				if backend == "mem" {
					e19Day(b, replica.NewBaseCluster(origin, cfg), windows, perWindow, 0)
					continue
				}
				dir, err := os.MkdirTemp("", "tiermerge-e19-bench-")
				if err != nil {
					b.Fatal(err)
				}
				c, _, err := replica.OpenBase(dir, origin, cfg)
				if err != nil {
					b.Fatal(err)
				}
				e19Day(b, c, windows, perWindow, 0)
				logBytes += c.LogSize()
				c.CloseStore()
				os.RemoveAll(dir)
			}
			b.ReportMetric(float64(windows*perWindow), "commits/op")
			if logBytes > 0 {
				b.ReportMetric(float64(logBytes)/float64(b.N), "log_B/op")
			}
		})
	}

	// Recovery images, built once: a full-history journal and the
	// checkpoint + tail segments the same day leaves after rotations.
	legacy := replica.NewBaseCluster(origin, cfg)
	var full bytes.Buffer
	if err := legacy.AttachJournal(&full); err != nil {
		b.Fatal(err)
	}
	e19Day(b, legacy, windows, perWindow, 0)
	ckptDir := b.TempDir()
	prep, _, err := replica.OpenBase(ckptDir, origin, cfg)
	if err != nil {
		b.Fatal(err)
	}
	e19Day(b, prep, windows, perWindow, 2)
	ckptBytes := prep.LogSize()
	if err := prep.CloseStore(); err != nil {
		b.Fatal(err)
	}

	for _, mode := range []string{"full", "ckpt"} {
		b.Run("recover="+mode, func(b *testing.B) {
			b.ReportAllocs()
			var replayed int64
			for n := 0; n < b.N; n++ {
				if mode == "full" {
					_, rec, err := replica.RecoverBaseCluster(bytes.NewReader(full.Bytes()), cfg)
					if err != nil {
						b.Fatal(err)
					}
					replayed += int64(rec.Records)
					continue
				}
				c, rec, err := replica.OpenBase(ckptDir, origin, cfg)
				if err != nil {
					b.Fatal(err)
				}
				replayed += int64(rec.Records)
				c.CloseStore()
			}
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
			if mode == "full" {
				b.ReportMetric(float64(full.Len()), "log_B")
			} else {
				b.ReportMetric(float64(ckptBytes), "log_B")
			}
		})
	}
}
