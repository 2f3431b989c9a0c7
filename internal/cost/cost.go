// Package cost implements the Section 7.1 cost model: an explicit
// accounting of (1) communication between mobile and base nodes,
// (2) computing at the base node and (3) computing at the mobile node, for
// both the two-tier reprocessing protocol and the merging protocol.
//
// The paper's comparison is analytic — it reasons about counts of messages,
// reprocessed queries, lock acquisitions and forced log writes, not about a
// concrete DBMS's absolute speed. The model therefore counts events and
// converts them to abstract cost units through a configurable weight
// vector; experiment E8 sweeps workloads and reports both raw counters and
// weighted totals.
package cost

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// Weights converts event counters into abstract cost units. The defaults
// encode the paper's qualitative relations: forced log I/O and query
// processing dominate base-node cost; per-byte communication is cheap but
// adds up for code shipping; graph building and rewriting are light
// in-memory operations on the mobile side.
type Weights struct {
	// Communication.
	MsgOverheadBytes int64 // fixed per-message framing
	CodeBytesPerStmt int64 // shipping one statement of transaction code
	ArgBytes         int64 // shipping one input argument
	SetEntryBytes    int64 // one read/write-set entry (item name)
	GraphEdgeBytes   int64 // one precedence-graph edge
	UpdateEntryBytes int64 // one forwarded update (item, value)
	ResultBytes      int64 // one reported re-execution result
	PerByteCost      int64 // cost units per byte on the wire

	// Base-node computing.
	TransformCost   int64 // turning one tentative transaction into a base transaction
	QueryCost       int64 // parse/validate/optimize/execute one statement
	LockCost        int64 // acquire+release one lock
	ForcedWriteCost int64 // force one commit record to the durable log
	ApplyEntryCost  int64 // install one forwarded update value
	GraphOpCost     int64 // one vertex/edge operation while building G(Hm, Hb)
	BackoutOpCost   int64 // one step of the back-out computation

	// Mobile-node computing.
	MobileGraphOpCost int64 // one vertex/edge operation while building G(Hm)
	RewriteOpCost     int64 // one pairwise can-follow/can-precede check
	PruneOpCost       int64 // one compensation or undo-repair operation
	ResultReportCost  int64 // informing the user of one re-execution result

	// Crash recovery (DESIGN.md §10).
	ReplayRecordCost int64 // decode + verify one journal record at recovery

	// Storage engine (DESIGN.md §14).
	CheckpointCost int64 // write + fsync + rename one checkpoint segment
}

// DefaultWeights returns the weight vector used by the experiments.
func DefaultWeights() Weights {
	return Weights{
		MsgOverheadBytes: 40,
		CodeBytesPerStmt: 64,
		ArgBytes:         8,
		SetEntryBytes:    8,
		GraphEdgeBytes:   8,
		UpdateEntryBytes: 16,
		ResultBytes:      16,
		PerByteCost:      1,

		TransformCost:   50,
		QueryCost:       100,
		LockCost:        10,
		ForcedWriteCost: 500,
		ApplyEntryCost:  10,
		GraphOpCost:     1,
		BackoutOpCost:   1,

		MobileGraphOpCost: 1,
		RewriteOpCost:     2,
		PruneOpCost:       20,
		ResultReportCost:  1,

		ReplayRecordCost: 2,

		CheckpointCost: 2000,
	}
}

// Counts is a plain tally of protocol events.
type Counts struct {
	// Communication events.
	Messages       int64
	Bytes          int64
	CodeStmtsSent  int64
	ArgsSent       int64
	SetEntriesSent int64
	GraphEdgesSent int64
	UpdatesSent    int64
	ResultsSent    int64

	// Base-node events.
	BaseTransforms int64
	BaseQueries    int64
	// BaseLocks counts the lock requests Section 7.1's cost model charges
	// a base execution; it is charged by the model only — no base path
	// takes an item lock (the cluster mutexes serialize execution).
	BaseLocks        int64
	BaseForcedWrites int64
	BaseApplies      int64
	BaseGraphOps     int64
	BaseBackoutOps   int64

	// Mobile-node events.
	MobileGraphOps   int64
	MobileRewriteOps int64
	MobilePruneOps   int64
	MobileReports    int64

	// Outcome tallies.
	TxnsReprocessed int64
	TxnsSaved       int64
	TxnsBackedOut   int64
	MergesPerformed int64
	MergeFallbacks  int64
	// MergeRetries counted re-prepares after a failed admission validation
	// under the retired optimistic pipeline (DESIGN.md §7). A merge now
	// runs in one critical section and never retries, so it stays 0; the
	// field stays because the benchmark's replica.merge_retries_per_merge
	// reads it.
	MergeRetries int64
	// AdmitBatches counts the critical sections reconnects entered — one
	// per merge reconnect, merged or fallen back, for every cluster-set
	// size, so it equals MergesPerformed + MergeFallbacks. (The name dates
	// from batched admission; the Prometheus series and the benchmark's
	// replica.admit_batch_size keep it.)
	AdmitBatches int64
	// CrossShardMerges counts merges whose footprint spanned more than one
	// shard of a sharded base tier (a cluster set of several members).
	// Always zero on an unsharded cluster.
	CrossShardMerges int64
	// DeltaFolded counts tentative pure-delta writes that associative
	// folding collapsed into net forwarded increments: for each forwarded
	// delta item, every saved write of it beyond the first. Zero when
	// delta-merge semantics are disabled.
	DeltaFolded int64
	// EdgesElided counts precedence-graph conflict pairs with a tentative
	// endpoint that needed no edge because both endpoints touch the shared
	// item only as pure commutative deltas (back-out exposure avoided).
	// Base–base pairs are not counted: the base history is indexed once per
	// commit, not paired per merge.
	EdgesElided int64

	// Crash-recovery events (mobile journal replays and base-log replays
	// alike; see DESIGN.md §10).
	Recoveries         int64
	WalRecordsReplayed int64

	// Storage-engine events (checkpoint + log-truncation cycles; see
	// DESIGN.md §14).
	StoreCheckpoints    int64
	StoreBytesTruncated int64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Messages += o.Messages
	c.Bytes += o.Bytes
	c.CodeStmtsSent += o.CodeStmtsSent
	c.ArgsSent += o.ArgsSent
	c.SetEntriesSent += o.SetEntriesSent
	c.GraphEdgesSent += o.GraphEdgesSent
	c.UpdatesSent += o.UpdatesSent
	c.ResultsSent += o.ResultsSent
	c.BaseTransforms += o.BaseTransforms
	c.BaseQueries += o.BaseQueries
	c.BaseLocks += o.BaseLocks
	c.BaseForcedWrites += o.BaseForcedWrites
	c.BaseApplies += o.BaseApplies
	c.BaseGraphOps += o.BaseGraphOps
	c.BaseBackoutOps += o.BaseBackoutOps
	c.MobileGraphOps += o.MobileGraphOps
	c.MobileRewriteOps += o.MobileRewriteOps
	c.MobilePruneOps += o.MobilePruneOps
	c.MobileReports += o.MobileReports
	c.TxnsReprocessed += o.TxnsReprocessed
	c.TxnsSaved += o.TxnsSaved
	c.TxnsBackedOut += o.TxnsBackedOut
	c.MergesPerformed += o.MergesPerformed
	c.MergeFallbacks += o.MergeFallbacks
	c.MergeRetries += o.MergeRetries
	c.AdmitBatches += o.AdmitBatches
	c.CrossShardMerges += o.CrossShardMerges
	c.DeltaFolded += o.DeltaFolded
	c.EdgesElided += o.EdgesElided
	c.Recoveries += o.Recoveries
	c.WalRecordsReplayed += o.WalRecordsReplayed
	c.StoreCheckpoints += o.StoreCheckpoints
	c.StoreBytesTruncated += o.StoreBytesTruncated
}

// Msg tallies one message of payloadBytes into the counts, applying the
// per-message overhead of w. It is the lock-free counterpart of
// Counters.Msg: concurrent protocol phases accumulate their charges into a
// private Counts delta and merge it into the shared Counters in one Add
// when they commit.
func (c *Counts) Msg(w Weights, payloadBytes int64) {
	c.Messages++
	c.Bytes += w.MsgOverheadBytes + payloadBytes
}

// Weighted converts the counts into cost units.
func (c Counts) Weighted(w Weights) Report {
	return Report{
		Comm: c.Bytes * w.PerByteCost,
		BaseCompute: c.BaseTransforms*w.TransformCost +
			c.BaseQueries*w.QueryCost +
			c.BaseLocks*w.LockCost +
			c.BaseForcedWrites*w.ForcedWriteCost +
			c.BaseApplies*w.ApplyEntryCost +
			c.BaseGraphOps*w.GraphOpCost +
			c.BaseBackoutOps*w.BackoutOpCost +
			c.StoreCheckpoints*w.CheckpointCost,
		MobileCompute: c.MobileGraphOps*w.MobileGraphOpCost +
			c.MobileRewriteOps*w.RewriteOpCost +
			c.MobilePruneOps*w.PruneOpCost +
			c.MobileReports*w.ResultReportCost +
			c.WalRecordsReplayed*w.ReplayRecordCost,
	}
}

// Each visits every counter as a (snake_case name, value) pair in struct
// declaration order — the single source of truth metric exporters walk, so
// adding a field to Counts automatically extends every dump.
func (c Counts) Each(f func(name string, v int64)) {
	v := reflect.ValueOf(c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f(snakeCase(t.Field(i).Name), v.Field(i).Int())
	}
}

// snakeCase converts a CamelCase field name to snake_case
// ("BaseForcedWrites" -> "base_forced_writes").
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// String renders the headline counters for reports.
func (c Counts) String() string {
	return fmt.Sprintf(
		"msgs=%d bytes=%d reprocessed=%d saved=%d backedout=%d merges=%d fallbacks=%d baseQ=%d baseIO=%d baseLocks=%d",
		c.Messages, c.Bytes, c.TxnsReprocessed, c.TxnsSaved, c.TxnsBackedOut,
		c.MergesPerformed, c.MergeFallbacks, c.BaseQueries, c.BaseForcedWrites, c.BaseLocks)
}

// Counters is a concurrency-safe accumulator of Counts.
type Counters struct {
	mu sync.Mutex
	c  Counts
}

// Msg records one message of payloadBytes, applying the per-message
// overhead of w.
func (c *Counters) Msg(w Weights, payloadBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Msg(w, payloadBytes)
}

// Add merges a privately accumulated delta into the counters in one
// critical section. Concurrent merge preparation charges its work into a
// local Counts and commits it here at admission, so the hot prepare path
// never contends on the counter lock.
func (c *Counters) Add(delta Counts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Add(delta)
}

// Update runs f on the underlying counts under the lock; use it for
// multi-field updates.
func (c *Counters) Update(f func(c *Counts)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.c)
}

// Snapshot returns a copy of the current counts.
func (c *Counters) Snapshot() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// Weighted converts the current counts into cost units.
func (c *Counters) Weighted(w Weights) Report { return c.Snapshot().Weighted(w) }

// Report is the weighted cost breakdown of a counter snapshot.
type Report struct {
	Comm, BaseCompute, MobileCompute int64
}

// Total returns the sum of the three components.
func (r Report) Total() int64 { return r.Comm + r.BaseCompute + r.MobileCompute }

// String renders the breakdown.
func (r Report) String() string {
	return fmt.Sprintf("comm=%d base=%d mobile=%d total=%d",
		r.Comm, r.BaseCompute, r.MobileCompute, r.Total())
}
