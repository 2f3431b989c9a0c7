// Package tiermerge is a Go implementation of the history-merging protocol
// for two-tier replicated mobile databases from:
//
//	Peng Liu, Paul Ammann, Sushil Jajodia.
//	"Incorporating Transaction Semantics to Reduce Reprocessing Overhead in
//	Replicated Mobile Data Applications." ICDCS 1999.
//
// Two-tier replication (Gray et al., SIGMOD '96) lets mobile nodes run
// tentative transactions while disconnected and re-executes all of them at
// the base tier on reconnect. This library implements the paper's
// alternative: merge the tentative history into the base history, back out
// only the undesirable transactions B whose removal breaks the precedence
// graph's cycles, and use semantics-aware history rewriting (can-follow and
// can-precede, Algorithms 1 and 2) to save as many affected transactions as
// possible — then forward just the final values the repaired history wrote.
//
// The package re-exports the library's stable surface. The building blocks
// live in focused subpackages (internal to the module):
//
//   - transactions and execution with fixes (Definition 1);
//   - serial/augmented histories, reads-from closures, final-state
//     equivalence (Section 3);
//   - the precedence graph and Davidson-style back-out strategies
//     (Section 2.1);
//   - the rewriting algorithms and can-precede detectors (Sections 4, 5);
//   - pruning by fixed compensation and by undo + undo-repair actions
//     (Section 6);
//   - the two-tier replication substrate: base cluster, mobile nodes,
//     origin strategies and time windows (Section 2.2);
//   - the Section 7.1 cost model and the scenario simulator.
//
// # Quick start
//
//	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"acct": 100})
//	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
//	m := tiermerge.NewMobileNode("m1", base)
//	_ = m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "acct", 25))
//	out, _ := m.ConnectMerge()
//	fmt.Println(out.Saved, base.Master().Get("acct")) // 1 125
//
// The node remembers the cluster it checked out from, so ConnectMerge,
// ConnectReprocess, PreviewMerge and Checkout take no argument; a node
// recovered from a journal is handed its cluster with Bind.
//
// The mobile/base split also runs over a real wire: Serve starts a server
// over any base tier, and MobileClient reconciles through a Transport —
// the in-process channel transport (BaseServer.Transport) or the
// length-prefixed TCP transport (internal/wire, driven by the tiermerge
// serve and client subcommands) — so the same client code runs against a
// goroutine or a separate process. See docs/WIRE.md.
package tiermerge

import (
	"context"
	"io"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/parse"
	"tiermerge/internal/prune"
	"tiermerge/internal/recovery"
	"tiermerge/internal/replica"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/sim"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// Core data model.
type (
	// Item names a replicated data item.
	Item = model.Item
	// Value is the scalar content of an item.
	Value = model.Value
	// State is a database state (item -> value).
	State = model.State
	// ItemSet is a set of items (read sets, write sets).
	ItemSet = model.ItemSet
)

// NewState returns an empty database state.
func NewState() State { return model.NewState() }

// StateOf builds a state from a literal map (copied).
func StateOf(m map[Item]Value) State { return model.StateOf(m) }

// NewItemSet builds an item set.
func NewItemSet(items ...Item) ItemSet { return model.NewItemSet(items...) }

// Transactions.
type (
	// Transaction is an executable transaction profile.
	Transaction = tx.Transaction
	// Stmt is one statement of a transaction body.
	Stmt = tx.Stmt
	// Fix pins read values for a transaction (Definition 1).
	Fix = tx.Fix
	// Effect is the logged outcome of one execution.
	Effect = tx.Effect
	// Kind distinguishes tentative from base transactions.
	Kind = tx.Kind
	// Expr is an arithmetic expression over items and parameters.
	Expr = expr.Expr
	// Pred is a boolean branch condition.
	Pred = expr.Pred
)

// Transaction kinds.
const (
	// Tentative transactions run on mobile nodes against tentative data.
	Tentative = tx.Tentative
	// Base transactions run on base nodes against master data.
	Base = tx.Base
)

// Statement constructors.
var (
	// Read builds a read statement.
	Read = tx.Read
	// Update builds a single-item update x := f(x, ...) with the implicit
	// no-blind-write pre-read of the target.
	Update = tx.Update
	// Assign builds a blind write (supported by the closure-based merge
	// only; the rewriting algorithms assume no blind writes).
	Assign = tx.Assign
	// If builds a conditional with a then branch.
	If = tx.If
	// IfElse builds a conditional with both branches.
	IfElse = tx.IfElse
)

// Expression constructors.
var (
	// Const builds an integer literal.
	Const = expr.Const
	// Var references a data item.
	Var = expr.Var
	// Param references a named input argument.
	Param = expr.Param
	// Add, Sub, Mul, Div build arithmetic nodes.
	Add = expr.Add
	Sub = expr.Sub
	Mul = expr.Mul
	Div = expr.Div
	// GT, GE, LT, LE, EQ, NE build comparisons for branch conditions.
	GT = expr.GT
	GE = expr.GE
	LT = expr.LT
	LE = expr.LE
	EQ = expr.EQ
	NE = expr.NE
	// And, Or, Not combine predicates.
	And = expr.And
	Or  = expr.Or
	Not = expr.Not
)

// NewTransaction builds and validates a transaction profile.
func NewTransaction(id string, kind Kind, body ...Stmt) (*Transaction, error) {
	return tx.New(id, kind, body...)
}

// MustNewTransaction is NewTransaction for statically known-good profiles;
// it panics on a validation error.
func MustNewTransaction(id string, kind Kind, body ...Stmt) *Transaction {
	return tx.MustNew(id, kind, body...)
}

// Invert synthesizes the compensating transaction T⁻¹ (Section 6.1), or
// returns a NotInvertibleError.
func Invert(t *Transaction) (*Transaction, error) { return tx.Invert(t) }

// Histories.
type (
	// History is a serial execution history.
	History = history.History
	// Augmented is a history decorated with explicit states (Section 3).
	Augmented = history.Augmented
)

// NewHistory builds a history over the given transactions.
func NewHistory(txns ...*Transaction) *History { return history.New(txns...) }

// RunHistory executes a history serially from s0, returning the augmented
// run.
func RunHistory(h *History, s0 State) (*Augmented, error) { return history.Run(h, s0) }

// FinalStateEquivalent reports whether two histories over the same
// transactions produce identical final states from s0 (Section 3).
func FinalStateEquivalent(h1, h2 *History, s0 State) (bool, error) {
	return history.FinalStateEquivalent(h1, h2, s0)
}

// Precedence graph and back-out.
type (
	// Graph is the precedence graph G(Hm, Hb) (Section 2.1).
	Graph = graph.Graph
	// BackoutStrategy computes the back-out set B.
	BackoutStrategy = graph.Strategy
)

// Back-out strategies (Davidson '84 adapted to the tentative/base split).
type (
	// TwoCycleStrategy breaks two-cycles first, then the remaining cycles
	// by cheapest cost — the library default.
	TwoCycleStrategy = graph.TwoCycle
	// GreedyCostStrategy repeatedly removes the cyclic tentative
	// transaction with the smallest back-out cost.
	GreedyCostStrategy = graph.GreedyCost
	// GreedyDegreeStrategy removes by feedback-vertex degree heuristic.
	GreedyDegreeStrategy = graph.GreedyDegree
	// ExhaustiveStrategy finds a minimum-cost back-out set exactly.
	ExhaustiveStrategy = graph.Exhaustive
	// AllCyclicStrategy backs out every cyclic tentative transaction.
	AllCyclicStrategy = graph.AllCyclic
)

// BuildGraph builds the precedence graph from two executed histories.
func BuildGraph(hm, hb *Augmented) *Graph { return graph.BuildFromHistories(hm, hb) }

// Rewriting.
type (
	// RewriteResult carries a rewritten history with fixes and its
	// repaired prefix.
	RewriteResult = rewrite.Result
	// PrecedeDetector decides Definition 4's can-precede relation.
	PrecedeDetector = rewrite.PrecedeDetector
	// StaticDetector is the sound profile-analysis detector (canned
	// systems).
	StaticDetector = rewrite.StaticDetector
	// DynamicDetector is the randomized repair-time detector.
	DynamicDetector = rewrite.DynamicDetector
)

// Rewriting algorithms.
var (
	// Algorithm1 is can-follow rewriting (Section 4).
	Algorithm1 = rewrite.Algorithm1
	// Algorithm2 is can-follow + can-precede rewriting (Section 5).
	Algorithm2 = rewrite.Algorithm2
	// CBTRewrite is the commutes-backward-through baseline of Theorem 4.
	CBTRewrite = rewrite.CBTR
	// ClosureBackout is the reads-from closure baseline of Theorem 3.
	ClosureBackout = rewrite.ClosureBackout
)

// Pruning (Section 6).
var (
	// PruneByCompensation prunes a rewritten history with fixed
	// compensating transactions.
	PruneByCompensation = prune.ByCompensation
	// PruneByUndo prunes with before-image undo plus Algorithm 3
	// undo-repair actions.
	PruneByUndo = prune.ByUndo
)

// Merging protocol (Section 2.1).
type (
	// MergeOptions configures a merge.
	MergeOptions = merge.Options
	// MergeReport is the outcome of one merge.
	MergeReport = merge.Report
	// Rewriter selects the rewriting algorithm for a merge.
	Rewriter = merge.Rewriter
	// Pruner selects the pruning approach for a merge.
	Pruner = merge.Pruner
)

// Rewriter choices.
const (
	// RewriteClosure discards B ∪ AG (Davidson baseline; supports blind
	// writes).
	RewriteClosure = merge.RewriteClosure
	// RewriteCanFollow runs Algorithm 1.
	RewriteCanFollow = merge.RewriteCanFollow
	// RewriteCanPrecede runs Algorithm 2 (the default).
	RewriteCanPrecede = merge.RewriteCanPrecede
	// RewriteCBT runs the pure-commutativity baseline.
	RewriteCBT = merge.RewriteCBT
	// RewriteCanFollowBW runs blind-write-safe can-follow rewriting.
	RewriteCanFollowBW = merge.RewriteCanFollowBW
)

// Pruner choices.
const (
	// PruneAuto tries compensation and falls back to undo.
	PruneAuto = merge.PruneAuto
	// PruneCompensation always compensates.
	PruneCompensation = merge.PruneCompensation
	// PruneUndo always undoes.
	PruneUndo = merge.PruneUndo
)

// Merge runs the merging protocol for one tentative history against the
// base history it raced with (both from the same origin state).
func Merge(hm, hb *Augmented, opts MergeOptions) (*MergeReport, error) {
	return merge.Merge(hm, hb, opts)
}

// VerifyMerge validates a merge against an explicit merged serial history.
var VerifyMerge = merge.VerifyMerge

// Replication substrate.
type (
	// BaseCluster is the base tier.
	BaseCluster = replica.BaseCluster
	// MobileNode runs tentative transactions while disconnected.
	MobileNode = replica.MobileNode
	// ClusterConfig parameterizes the base cluster.
	ClusterConfig = replica.Config
	// ConnectOutcome summarizes one reconnect.
	ConnectOutcome = replica.ConnectOutcome
	// OriginStrategy selects Section 2.2's Strategy 1 or Strategy 2.
	OriginStrategy = replica.OriginStrategy
)

// Origin strategies.
const (
	// Strategy2: every tentative history starts from the shared window
	// origin (the paper's choice; default).
	Strategy2 = replica.Strategy2
	// Strategy1: each tentative history starts from the master state at
	// checkout (exhibits the Figure 2 anomaly).
	Strategy1 = replica.Strategy1
)

// NewBaseCluster builds a base cluster over the initial master state,
// writing through the in-memory storage engine; OpenBase is its durable
// counterpart. The engine is the constructor's choice, not a
// ClusterConfig field.
func NewBaseCluster(initial State, cfg ClusterConfig) *BaseCluster {
	return replica.NewBaseCluster(initial, cfg)
}

// NewMobileNode creates a mobile node and checks out its first replica.
func NewMobileNode(id string, b *BaseCluster) *MobileNode {
	return replica.NewMobileNode(id, b)
}

// Sharded base tier (DESIGN.md §11): the item space partitioned across N
// base clusters, each with its own mutex, window clock, history and
// journal. A merge runs one critical section under the mutexes of the
// shards its footprint touches — of every shard while the window holds a
// cross-shard entry, whose per-shard slices would hide a cycle.
type (
	// ShardedBase coordinates N base-cluster shards behind the BaseCluster
	// connect surface. A one-shard tier behaves exactly like a plain
	// cluster.
	ShardedBase = replica.ShardedBase
	// ShardRouter maps items to shards (ClusterConfig.ShardFn or FNV-1a).
	ShardRouter = replica.ShardRouter
)

// NewShardedBase builds a sharded base tier over the initial master state.
func NewShardedBase(initial State, shards int, cfg ClusterConfig) *ShardedBase {
	return replica.NewShardedBase(initial, shards, cfg)
}

// NewShardedMobileNode creates a mobile node bound to a sharded base tier
// and checks out its first replica.
func NewShardedMobileNode(id string, s *ShardedBase) *MobileNode {
	return replica.NewShardedMobileNode(id, s)
}

// Typed sentinel errors. Each is wrapped with %w at its origin; match with
// errors.Is.
var (
	// ErrUnresolvableCycle: a precedence-graph cycle contains only base
	// transactions, so no back-out set can break it.
	ErrUnresolvableCycle = graph.ErrUnbreakable
	// ErrBlindWrites: the history contains blind writes, which Algorithms
	// 1/2 do not support (use RewriteClosure or RewriteCanFollowBW).
	ErrBlindWrites = rewrite.ErrBlindWrites
	// ErrBadMergeOptions: MergeOptions failed validation.
	ErrBadMergeOptions = merge.ErrBadOptions
	// ErrBadClusterConfig: ClusterConfig failed validation.
	ErrBadClusterConfig = replica.ErrBadConfig
	// ErrWindowExpired: a checkout token's time window has closed.
	ErrWindowExpired = replica.ErrWindowExpired
	// ErrOriginInvalid: a Strategy 1 checkout origin was invalidated by a
	// concurrent merge (the Figure 2 anomaly).
	ErrOriginInvalid = replica.ErrOriginInvalid
	// ErrNotBase / ErrNotTentative: a transaction was submitted to the
	// wrong tier.
	ErrNotBase      = replica.ErrNotBase
	ErrNotTentative = replica.ErrNotTentative
	// ErrNoCluster: a connect method ran on a recovered node before a
	// cluster was bound.
	ErrNoCluster = replica.ErrNoCluster
	// ErrClusterMismatch: the deprecated one-argument connect form named a
	// cluster other than the node's own.
	ErrClusterMismatch = replica.ErrClusterMismatch
	// ErrServerClosed: a request reached a closed BaseServer.
	ErrServerClosed = replica.ErrServerClosed
	// ErrResponseLost: a transport lost the response after the request may
	// have been applied; sequence-numbered and idempotent requests retry
	// on it (errors.Is).
	ErrResponseLost = replica.ErrResponseLost
)

// Observability (the merge-pipeline instrumentation layer; see
// DESIGN.md §9 and docs/METRICS.md).
type (
	// Observer receives a span event for every reconnect phase; set it on
	// ClusterConfig.Observer. A nil observer costs one nil check per
	// would-be event.
	Observer = obs.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = obs.ObserverFunc
	// MergeEvent is one observed span or mark on the reconnect path.
	MergeEvent = obs.Event
	// MergePhase names a reconnect stage (checkout, graph-build, rewrite,
	// admit, ...).
	MergePhase = obs.Phase
	// MergeCause classifies fallbacks and recovery outcomes.
	MergeCause = obs.Cause
	// Metrics folds the event stream into a MetricsRegistry.
	Metrics = obs.Metrics
	// MetricsRegistry holds atomic counters, gauges and latency
	// histograms, and renders expvar-style JSON or Prometheus text.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time registry copy.
	MetricsSnapshot = obs.Snapshot
	// MergeTracer records raw events for per-merge phase breakdowns.
	MergeTracer = obs.Tracer
	// MergeTrace groups one reconnect's events.
	MergeTrace = obs.MergeTrace
)

// Reconnect phases (see MergePhase).
const (
	PhaseCheckout  = obs.PhaseCheckout
	PhaseRun       = obs.PhaseRun
	PhaseLockWait  = obs.PhaseLockWait
	PhaseSnapshot  = obs.PhaseSnapshot
	PhaseGraph     = obs.PhaseGraph
	PhaseBackout   = obs.PhaseBackout
	PhaseRewrite   = obs.PhaseRewrite
	PhasePrune     = obs.PhasePrune
	PhaseAdmit     = obs.PhaseAdmit
	PhaseFallback  = obs.PhaseFallback
	PhaseReprocess = obs.PhaseReprocess
	PhasePropagate = obs.PhasePropagate
	PhaseMerge     = obs.PhaseMerge
)

// NewMetrics returns a Metrics observer over a fresh registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewMergeTracer returns an empty tracer.
func NewMergeTracer() *MergeTracer { return obs.NewTracer() }

// MultiObserver fans events out to several observers (nil entries are
// skipped; empty yields nil).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// Cost model (Section 7.1).
type (
	// CostWeights converts protocol events to abstract cost units.
	CostWeights = cost.Weights
	// CostCounts tallies protocol events.
	CostCounts = cost.Counts
	// CostReport is a weighted cost breakdown.
	CostReport = cost.Report
)

// DefaultCostWeights returns the experiment weight vector.
func DefaultCostWeights() CostWeights { return cost.DefaultWeights() }

// Simulation.
type (
	// Scenario configures a whole-system simulation.
	Scenario = sim.Scenario
	// ScenarioResult summarizes a run.
	ScenarioResult = sim.Result
	// Protocol selects merging vs reprocessing for a scenario.
	Protocol = sim.Protocol
)

// Scenario protocols.
const (
	// MergingProtocol reconciles by history merging.
	MergingProtocol = sim.Merging
	// ReprocessingProtocol reconciles by wholesale re-execution.
	ReprocessingProtocol = sim.Reprocessing
)

// RunScenario executes a simulation scenario.
func RunScenario(sc Scenario) (*ScenarioResult, error) { return sim.Run(sc) }

// Canned transaction library (Section 5.1's "canned systems").
var (
	// Deposit: item += amt (commutative, invertible).
	Deposit = workload.Deposit
	// Withdraw: item -= amt.
	Withdraw = workload.Withdraw
	// Transfer: from -= amt; to += amt.
	Transfer = workload.Transfer
	// GuardedTransfer transfers only when funds suffice.
	GuardedTransfer = workload.GuardedTransfer
	// SetPrice: item := p (non-commutative overwrite).
	SetPrice = workload.SetPrice
	// Audit reads items (read-only).
	Audit = workload.Audit
	// Bonus: if gate > threshold then target += b.
	Bonus = workload.Bonus
	// AccrueInterest: item += item/rate (never commutes).
	AccrueInterest = workload.AccrueInterest
	// Restock: item := max(item, floor).
	Restock = workload.Restock
)

// WorkloadConfig parameterizes the synthetic workload generator.
type WorkloadConfig = workload.Config

// WorkloadGenerator mints deterministic random transactions and histories.
type WorkloadGenerator = workload.Generator

// NewWorkloadGenerator builds a seeded generator.
func NewWorkloadGenerator(cfg WorkloadConfig) *WorkloadGenerator {
	return workload.NewGenerator(cfg)
}

// Write-ahead log (the log-driven substrate of Sections 5.1/6.2/7.1).
type (
	// WALRecord is one journal record: one checksummed binary frame of
	// the stream.
	WALRecord = wal.Record
	// WALWriter appends journal records.
	WALWriter = wal.Writer
	// WALReplayed is a tentative run reconstructed from a journal.
	WALReplayed = wal.Replayed
	// WALScanResult is a decoded journal stream plus its damage report
	// (where the journal tears, what was discarded).
	WALScanResult = wal.ScanResult
	// WALRecovery reports what a crash recovery replayed and what crash
	// damage it dropped (see DESIGN.md §10 and docs/RECOVERY.md).
	WALRecovery = replica.Recovery
)

// ErrWALCorrupt is returned (wrapped) when a journal contradicts
// re-execution, carries a record that fails its checksum, or is in the
// JSON-lines format of earlier versions.
var ErrWALCorrupt = wal.ErrCorrupt

// NewWALWriter starts a journal on w.
func NewWALWriter(w io.Writer) *WALWriter { return wal.NewWriter(w) }

// ReadWAL decodes every record of a journal stream in strict mode: a
// final record cut short by the end of the stream (crash damage) is
// dropped, but any complete record that fails its checksum and any
// dropped or duplicated record fails with ErrWALCorrupt rather than
// silently truncating acknowledged work.
func ReadWAL(r io.Reader) ([]WALRecord, error) { return wal.ReadAll(r) }

// SalvageWAL decodes the longest valid prefix of a damaged journal and
// reports where it tears — forensics for logs strict recovery rejects
// (walinspect -salvage). Never recover from a salvaged prefix blindly:
// acknowledged work past the tear is lost.
func SalvageWAL(r io.Reader) (*WALScanResult, error) { return wal.Scan(r, wal.Salvage) }

// ReplayWAL rebuilds and verifies a tentative run from journal records.
func ReplayWAL(records []WALRecord) (*WALReplayed, error) { return wal.Replay(records) }

// RecoverMobileNode rebuilds a crashed mobile node from its journal; its
// next connect merges exactly as the lost node would have. The WALRecovery
// report says what was replayed and whether a torn tail was dropped. The
// recovered node has no journal attached — call AttachJournal to
// re-establish durability for the rest of the period.
func RecoverMobileNode(id string, r io.Reader) (*MobileNode, *WALRecovery, error) {
	return replica.RecoverMobileNode(id, r)
}

// MarshalTransaction encodes a transaction in the binary form the journal
// records and code shipping carries; UnmarshalTransaction decodes it —
// refusing malformed, over-deep or trailing input — and re-validates it.
var (
	MarshalTransaction   = tx.MarshalTransaction
	UnmarshalTransaction = tx.UnmarshalTransaction
	// TransactionEncodedSize measures the real shipped-code payload.
	TransactionEncodedSize = tx.EncodedSize
)

// Extensions beyond the paper's presentation (documented in DESIGN.md):
// blind-write rewriting, the canned-system detector cache, and acceptance
// criteria for re-executions.

// CachedDetector memoizes can-precede verdicts per canned type pair — the
// Section 5.1 "pre-detected in advance" mode.
type CachedDetector = rewrite.CachedDetector

// NewCachedDetector wraps inner (default StaticDetector) with the
// type-pair cache.
func NewCachedDetector(inner PrecedeDetector) *CachedDetector {
	return rewrite.NewCachedDetector(inner)
}

// Algorithm1BW is can-follow rewriting generalized to blind writes (the
// Section 3 adaptation the paper mentions but does not present).
var Algorithm1BW = rewrite.Algorithm1BW

// Acceptance decides whether a re-executed tentative transaction's base
// outcome is acceptable to its user.
type Acceptance = replica.Acceptance

// Acceptance criteria.
var (
	// AcceptSameWrites accepts only re-executions writing exactly the
	// tentative values.
	AcceptSameWrites = replica.AcceptSameWrites
	// AcceptWithinDrift accepts bounded per-item deviation.
	AcceptWithinDrift = replica.AcceptWithinDrift
)

// Standalone recovery (the rewriting framework's original application:
// excise bad transactions from a committed history without re-executing
// the survivors).
type (
	// RecoveryOptions configures an excision.
	RecoveryOptions = recovery.Options
	// RecoveryReport is the outcome of an excision.
	RecoveryReport = recovery.Report
)

// Excise removes the named bad transactions (and unsalvageable affected
// work) from a committed history, repairing the state from the final state
// rather than by re-execution.
func Excise(a *Augmented, badIDs []string, opts RecoveryOptions) (*RecoveryReport, error) {
	return recovery.Excise(a, badIDs, opts)
}

// Textual profile language (the notation the paper writes transactions in,
// e.g. "if x > 0 { y := y + z + 3 }"). See cmd/txrun for scenario files.
type ParsedScenario = parse.Scenario

// Parse functions for the profile language.
var (
	// ParseBody parses a statement block into a transaction body.
	ParseBody = parse.Body
	// ParseTransaction parses a body and assembles a validated transaction.
	ParseTransaction = parse.Transaction
	// ParseScenarioFile parses a full merge scenario (origin + histories).
	ParseScenarioFile = parse.ScenarioFile
)

// Formatting for the profile language (round-trips with the parser).
var (
	// FormatBody renders a transaction body in profile-language syntax.
	FormatBody = parse.FormatBody
	// FormatTransaction renders a full scenario-file declaration.
	FormatTransaction = parse.FormatTransaction
	// FormatScenario renders a whole scenario file.
	FormatScenario = parse.FormatScenario
)

// RecoverBaseCluster rebuilds a crashed base tier from its journal (see
// BaseCluster.AttachJournal), verifying every replayed commit against its
// logged reads, write images, before-images and delta annotations. The
// WALRecovery report says what was replayed and whether a torn tail was
// dropped.
func RecoverBaseCluster(r io.Reader, cfg ClusterConfig) (*BaseCluster, *WALRecovery, error) {
	return replica.RecoverBaseCluster(r, cfg)
}

// OpenBase opens (or creates) a durable base cluster rooted at dir: every
// commit is journaled to a segmented log (checkpoint + live tail), and
// recovery replays checkpoint-then-tail instead of the full history. The
// cluster's Checkpoint method rotates segments and truncates the log;
// CloseStore releases the log. See DESIGN.md §14.
func OpenBase(dir string, initial State, cfg ClusterConfig) (*BaseCluster, *WALRecovery, error) {
	return replica.OpenBase(dir, initial, cfg)
}

// OpenShardedBase is the sharded counterpart of OpenBase: each shard
// recovers from (and persists to) its own engine under dir. One recovery
// report is returned per shard.
func OpenShardedBase(dir string, initial State, shards int, cfg ClusterConfig) (*ShardedBase, []*WALRecovery, error) {
	return replica.OpenShardedBase(dir, initial, shards, cfg)
}

// Message-passing realization of the mobile/base split: a server over the
// base tier, and clients whose checkout/merge/reprocess travel as
// serialized payloads (journals, code) — real wire sizes included. The
// transport seam separates the protocol from its medium: the in-process
// channel transport ships here, the TCP realization in internal/wire.
type (
	// BaseServer serves a base tier behind the wire protocol's
	// request/response envelopes, with a worker pool and a per-mobile
	// applied table that makes sequence-numbered retries exactly-once.
	BaseServer = replica.BaseServer
	// BaseTier is the server-side seam: the reconciliation surface a
	// BaseServer fronts (BaseCluster and ShardedBase both satisfy it).
	BaseTier = replica.BaseTier
	// MobileClient reconciles with the base tier through a Transport only.
	MobileClient = replica.Client
	// Transport carries one serialized request envelope to a base server
	// and returns the serialized response — implemented by the in-process
	// channel transport (BaseServer.Transport) and the TCP client pool in
	// internal/wire.
	Transport = replica.Transport
	// ServeOption configures Serve.
	ServeOption = replica.ServeOption
)

// Serve starts a server over any base tier; Close it when done.
func Serve(tier BaseTier, opts ...ServeOption) *BaseServer {
	return replica.Serve(tier, opts...)
}

// Serve options.
var (
	// WithWorkers sets the server's worker-goroutine count (default 1).
	WithWorkers = replica.WithWorkers
	// WithDropEveryNth arms fault injection: every nth mobile-facing
	// response is lost (retries + dedup keep reconciles exactly-once).
	WithDropEveryNth = replica.WithDropEveryNth
	// WithObserver attaches an observer to the server's transport metrics.
	WithObserver = replica.WithObserver
)

// DialBase checks a mobile client out from the server over its in-process
// transport.
func DialBase(id string, srv *BaseServer) (*MobileClient, error) {
	return replica.Dial(id, srv)
}

// DialBaseContext is DialBase honoring ctx for the initial checkout.
func DialBaseContext(ctx context.Context, id string, srv *BaseServer) (*MobileClient, error) {
	return replica.DialContext(ctx, id, srv)
}

// DialTransport checks a mobile client out over any Transport. The client
// does not own the transport; close it separately when done.
func DialTransport(ctx context.Context, id string, tr Transport) (*MobileClient, error) {
	return replica.DialTransport(ctx, id, tr)
}
