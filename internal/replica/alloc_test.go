package replica

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tiermerge/internal/graph"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the graph phase's scratch (BaseCluster.scratch): what a served
// merge allocates, that nothing a merge returns points into the scratch a
// later merge reuses, and that the local-graph charge read off the merge's
// own graph is the one a second build of G(Hm) would give.

// hotConfig is a conflict-heavy-shaped generator: 4 hot items of 128.
func hotConfig(seed int64) workload.Config {
	return workload.Config{Seed: seed, Items: 128, HotItems: 4, PHot: 0.25, PCommutative: 0.2}
}

// TestServeFrameMergeAllocs: one served same-window merge of 16 tentative
// transactions on hot items, against 32 base commits, allocates at most
// frameBytes — the decode, replay, merge, install and answer of the frame.
// Frames of distinct mobiles carry one period, so every delivery merges
// against the same window plus the installs before it. The pin sits between
// the 97 KiB (101 KiB under -race) such a merge allocates with compiled
// sets as sorted slices that a re-executed copy shares and the graph kept
// in CSR form, and the 117 KiB (122 KiB) it took with map-based compiled
// sets, each backed-out transaction compiled again for its re-execution,
// footprints as maps and adjacency lists of their own per vertex.
func TestServeFrameMergeAllocs(t *testing.T) {
	// One P: the JSON codec's per-P buffer pools then hand the server the
	// same warm buffers in every round.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const frameBytes = 108 << 10
	gen := workload.NewGenerator(hotConfig(7))
	origin := gen.OriginState()
	hm, err := gen.RunHistory(tx.Tentative, 16, origin)
	if err != nil {
		t.Fatal(err)
	}
	txns := make([]*tx.Transaction, hm.H.Len())
	for i := range txns {
		txns[i] = hm.H.Txn(i)
	}
	b := NewBaseCluster(origin, Config{})
	srv := Serve(b)
	defer srv.Close()
	execSome(b, gen, 32)
	window := b.CheckoutReplica("m").WindowID
	var req wireReq
	if err := json.Unmarshal(mergeFrame(t, window, origin, txns...), &req); err != nil {
		t.Fatal(err)
	}
	best, backedOut := uint64(1<<63), 0
	for i := range 8 {
		req.MobileID = fmt.Sprintf("m%d", i)
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := serveOne(t, srv, payload)
		runtime.ReadMemStats(&after)
		if resp.Err != "" || !resp.Merged {
			t.Fatalf("delivery %d: %+v", i, resp)
		}
		backedOut += len(resp.BadIDs)
		if i > 0 { // the first delivery grows the cluster's scratch
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("a served merge of %d transactions allocates %d B (%d backed out over 8 deliveries)", len(txns), best, backedOut)
	if backedOut == 0 {
		t.Fatal("no delivery backed anything out: the merges are not conflict-heavy")
	}
	if best > frameBytes {
		t.Errorf("a served merge allocates %d B, pinned at %d B", best, frameBytes)
	}
}

// runSome runs n generated tentative transactions on m; one that fails
// (a withdrawal that would overdraw) leaves m unchanged and is not retried.
func runSome(m *MobileNode, gen *workload.Generator, n int) {
	for range n {
		_ = m.Run(gen.Txn(tx.Tentative))
	}
}

// execSome commits n generated base transactions; one that fails commits
// nothing.
func execSome(b BaseTier, gen *workload.Generator, n int) {
	for range n {
		_ = b.ExecBase(gen.Txn(tx.Base))
	}
}

// mergeRecord is a deep copy of what a merge returned: the outcome and
// every report field a later merge through the same scratch could clobber.
type mergeRecord struct {
	merged                  bool
	badIDs, outBad, saved   []string
	saves, reprocessed      int
	repaired                []string
	repairedState           model.State
	forwards, deltas        map[model.Item]model.Value
	succ, pred              [][]int32
	cost                    []int
	elided, mobile, vertex  int
	reexecute, affectedIDs  []string
	conflict                bool
	graphString, firstCycle string
}

func recordOf(out *ConnectOutcome) mergeRecord {
	rep := out.Report
	r := mergeRecord{
		merged: out.Merged, outBad: append([]string(nil), out.BadIDs...),
		saves: out.Saved, reprocessed: out.Reprocessed,
		badIDs: append([]string(nil), rep.BadIDs...), saved: append([]string(nil), rep.SavedIDs...),
		affectedIDs: append([]string(nil), rep.AffectedIDs...), conflict: rep.Conflict,
		repaired: rep.Repaired.IDs(), repairedState: rep.RepairedState.Clone(),
		forwards: maps.Clone(rep.ForwardUpdates), deltas: maps.Clone(rep.ForwardDeltas),
		elided: rep.Graph.Elided, mobile: rep.Graph.MobileLen, vertex: rep.Graph.Len(),
		graphString: rep.Graph.String(), firstCycle: fmt.Sprint(rep.Graph.FindCycle(nil)),
	}
	for _, t := range rep.Reexecute {
		r.reexecute = append(r.reexecute, t.ID)
	}
	for v := range rep.Graph.Len() {
		r.succ = append(r.succ, slices.Clone(rep.Graph.Succ(v)))
		r.pred = append(r.pred, slices.Clone(rep.Graph.Pred(v)))
		r.cost = append(r.cost, rep.Graph.Cost(v))
	}
	return r
}

// TestScratchReuseLeavesEarlierMergesAlone: merges back to back through
// one home cluster's scratch — a small one, a larger cyclic one that grows
// the scratch, and a middling one that reuses the grown arrays in place.
// Every earlier merge's outcome and report — graph adjacency, costs and
// elided count, B, the saved and repaired histories, the repaired state
// and the forwards — equal a deep copy taken before the later merges, both
// while each runs (read from another goroutine, so -race sees any write
// into them) and after. On one cluster and across 4 shards.
func TestScratchReuseLeavesEarlierMergesAlone(t *testing.T) {
	shardOf := func(it model.Item) int { return int(it[len(it)-1]) % 4 }
	tiers := []struct {
		name string
		open func(origin model.State) (BaseTier, func(id string) *MobileNode)
	}{
		{"cluster", func(origin model.State) (BaseTier, func(string) *MobileNode) {
			b := NewBaseCluster(origin, Config{})
			return b, func(id string) *MobileNode { return NewMobileNode(id, b) }
		}},
		{"4shards", func(origin model.State) (BaseTier, func(string) *MobileNode) {
			s := NewShardedBase(origin, 4, Config{ShardFn: shardOf})
			return s, func(id string) *MobileNode { return NewShardedMobileNode(id, s) }
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			gen := workload.NewGenerator(hotConfig(11))
			base, mobile := tier.open(gen.OriginState())
			sizes := []int{4, 24, 12}
			mobiles := make([]*MobileNode, len(sizes))
			for i, n := range sizes {
				mobiles[i] = mobile(fmt.Sprintf("m%d", i))
				runSome(mobiles[i], gen, n)
			}
			var outs []*ConnectOutcome
			var want []mergeRecord
			unchanged := func(when string) bool {
				for i, out := range outs {
					if got := recordOf(out); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("merge %d changed %s:\n%+v\nwant %+v", i, when, got, want[i])
						return false
					}
				}
				return true
			}
			for i, m := range mobiles {
				execSome(base, gen, 12)
				done := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for unchanged(fmt.Sprintf("while merge %d ran", i)) {
						select {
						case <-done:
							return
						default:
						}
					}
				}()
				out, err := m.ConnectMerge()
				close(done)
				wg.Wait()
				if err != nil || !out.Merged {
					t.Fatalf("merge %d: %+v, %v", i, out, err)
				}
				if !unchanged(fmt.Sprintf("after merge %d", i)) {
					t.FailNow()
				}
				outs, want = append(outs, out), append(want, recordOf(out))
			}
			if !want[1].conflict || want[1].vertex <= want[0].vertex || want[2].vertex >= want[1].vertex {
				t.Fatalf("merges of %d, %d and %d vertices (the second cyclic: %v): want the second larger than both others and cyclic",
					want[0].vertex, want[1].vertex, want[2].vertex, want[1].conflict)
			}
		})
	}
}

// TestLocalEdgeChargeExact: over generated fleets, deltas on and off, the
// local-graph charge a prepare reads off the merge's own graph
// (Graph.LocalEdges) is the edge count of a second build of G(Hm) without
// delta classification — the build the charge used to pay for.
func TestLocalEdgeChargeExact(t *testing.T) {
	merges, elided := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, noDeltas := range []bool{false, true} {
			cfg := Config{MergeOptions: merge.Options{DisableDeltas: noDeltas}}
			gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 8 + int(seed%4)*8, HotItems: 3, PHot: 0.4, PCommutative: 0.5})
			origin := gen.OriginState()
			b := NewBaseCluster(origin, cfg)
			ck := b.CheckoutReplica("m")
			hm, err := gen.RunHistory(tx.Tentative, 4+int(seed%13), origin)
			if err != nil {
				continue // a generated withdrawal overdrew; the seed has no fleet
			}
			execSome(b, gen, 20)
			snap := captureView(t, b, ck, hm)
			var s graph.Scratch
			p, err := prepareMerge(b.cfg, snap.view, hm, &s, nil)
			if err != nil {
				t.Fatal(err)
			}
			gm := graph.Build(graph.AccessesOf(hm), nil)
			want := 0
			for v := range gm.Len() {
				want += len(gm.Succ(v))
			}
			if got := p.deltaPrepare.GraphEdgesSent; got != int64(want) {
				t.Errorf("seed %d noDeltas=%v: local edges charged %d, G(Hm) has %d", seed, noDeltas, got, want)
			}
			if got, want := p.deltaPrepare.MobileGraphOps, int64(hm.H.Len()+want); got != want {
				t.Errorf("seed %d noDeltas=%v: mobile graph ops %d, want %d", seed, noDeltas, got, want)
			}
			merges++
			elided += p.rep.Graph.Elided
		}
	}
	t.Logf("%d merges, %d elided pairs", merges, elided)
	if merges < 16 || elided == 0 {
		t.Fatalf("%d merges, %d elided pairs: the comparison is vacuous", merges, elided)
	}
}
