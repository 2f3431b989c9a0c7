// Package sim drives whole-system scenarios: a base cluster plus a fleet of
// mobile nodes cycling through disconnection periods (run tentative
// transactions) and reconnections (merge or reprocess), with background
// base-transaction traffic. It produces the series behind experiments E7
// (origin strategies and time windows) and E8 (merging vs reprocessing
// cost).
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"tiermerge/internal/cost"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/wire"
	"tiermerge/internal/workload"
)

// Protocol selects the reconciliation protocol mobiles use on connect.
type Protocol int

// Protocols.
const (
	// Merging is the paper's protocol (Section 2).
	Merging Protocol = iota + 1
	// Reprocessing is the original two-tier protocol of [GHOS96]: every
	// tentative transaction is re-executed at the base.
	Reprocessing
)

func (p Protocol) String() string {
	switch p {
	case Merging:
		return "merging"
	case Reprocessing:
		return "reprocessing"
	default:
		return "unknown"
	}
}

// Scenario configures one simulation run.
type Scenario struct {
	// Seed drives every generator in the scenario.
	Seed int64
	// Mobiles is the fleet size (default 4).
	Mobiles int
	// Rounds is the number of disconnect/connect cycles per mobile
	// (default 3).
	Rounds int
	// TxnsPerRound is the tentative transactions each mobile runs per
	// disconnection period (default 5).
	TxnsPerRound int
	// BaseTxnsPerRound is the number of base transactions committed per
	// round while the mobiles are away (default 3).
	BaseTxnsPerRound int
	// Items is the database universe size (default 64).
	Items int
	// PCommutative is the additive fraction of the workload (default 0.6).
	PCommutative float64
	// Protocol selects merging vs reprocessing (default Merging).
	Protocol Protocol
	// Origin selects Strategy 1 vs Strategy 2 (default Strategy 2).
	Origin replica.OriginStrategy
	// BaseNodes is the base-tier replica count (default 1).
	BaseNodes int
	// MergeOptions configures the merging protocol.
	MergeOptions merge.Options
	// Weights is the cost model (default cost.DefaultWeights()).
	Weights cost.Weights
	// WindowEveryRounds advances the time window every k rounds; 0 never
	// advances it (one window for the whole run).
	WindowEveryRounds int
	// Concurrent runs each mobile as a goroutine. Aggregate tallies stay
	// meaningful but are no longer bit-reproducible across runs; the
	// deterministic serial mode is the default.
	Concurrent bool
	// Acceptance validates re-executed tentative transactions (nil accepts
	// all successful re-executions).
	Acceptance replica.Acceptance
	// PCrash is the per-round probability (serial mode) that a mobile node
	// crashes before connecting; the node is recovered from its journal
	// and then connects, exercising the WAL path end to end.
	PCrash float64
	// HotItems and PHot forward the workload generator's access skew.
	HotItems int
	PHot     float64
	// PSkipConnect is the per-round probability (serial mode) that a mobile
	// stays offline instead of reconnecting, so its tentative history
	// accumulates across rounds — longer disconnections mean bigger merges
	// and more window-expiry fallbacks.
	PSkipConnect float64
	// MessagePassing runs mobiles as message-channel clients against a
	// BaseServer goroutine instead of calling the cluster directly: every
	// checkout, merge and reprocess travels as a serialized payload
	// (implies Concurrent-style scheduling but deterministic per client).
	MessagePassing bool
	// WireTCP upgrades MessagePassing to real loopback TCP: the BaseServer
	// is fronted by a wire.Server on 127.0.0.1 and every client dials its
	// own pooled TCP transport, so the measured traffic includes framing
	// and the transport's redial behavior (implies MessagePassing).
	WireTCP bool
	// DropEveryNth makes the message transport lose every nth response
	// (MessagePassing mode only); clients retry and the server's dedup
	// cache keeps reconnects exactly-once.
	DropEveryNth int64
	// ServerWorkers sizes the BaseServer request-worker pool
	// (MessagePassing mode only; default 1; see replica.WithWorkers).
	ServerWorkers int
	// Observer forwards replica.Config.Observer: it receives a span event
	// for every reconnect phase the scenario drives (nil = no
	// observability overhead beyond a nil check).
	Observer obs.Observer
	// Shards > 0 partitions the base tier across that many clusters
	// (replica.ShardedBase) and switches to the sharded fleet driver: each
	// mobile deposits into its own account item, so merges from different
	// mobiles land on independent shards. Shards == 1 runs the same fleet
	// on a single-shard tier (the apples-to-apples baseline); 0 keeps the
	// plain cluster and the item-generator workload.
	Shards int
	// PCrossShard is the probability a tentative transaction is a transfer
	// to another mobile's account on a different shard, exercising the
	// cross-shard merge (sharded driver only).
	PCrossShard float64
}

func (s Scenario) withDefaults() Scenario {
	if s.Mobiles == 0 {
		s.Mobiles = 4
	}
	if s.Rounds == 0 {
		s.Rounds = 3
	}
	if s.TxnsPerRound == 0 {
		s.TxnsPerRound = 5
	}
	if s.BaseTxnsPerRound == 0 {
		s.BaseTxnsPerRound = 3
	}
	if s.Items == 0 {
		s.Items = 64
	}
	if s.PCommutative == 0 {
		s.PCommutative = 0.6
	}
	if s.Protocol == 0 {
		s.Protocol = Merging
	}
	if s.BaseNodes == 0 {
		s.BaseNodes = 1
	}
	if s.Weights == (cost.Weights{}) {
		s.Weights = cost.DefaultWeights()
	}
	return s
}

// Result summarizes one simulation run.
type Result struct {
	// Scenario echoes the effective configuration.
	Scenario Scenario
	// Counts are the raw protocol event tallies.
	Counts cost.Counts
	// Cost is the weighted Section 7.1 breakdown.
	Cost cost.Report
	// FinalMaster is the master state after every mobile reconciled.
	FinalMaster model.State
	// FailedReexecutions counts re-executions that failed at the base.
	FailedReexecutions int64
	// TentativeRun counts tentative transactions executed on mobiles.
	TentativeRun int64
	// Crashes counts mobile crashes injected (and recovered from journals).
	Crashes int64
	// WireRequests and WireBytes report the transport's real traffic
	// (MessagePassing/WireTCP modes only). WireBytes counts payload bytes.
	// In MessagePassing mode they cover every server request (base-tier
	// traffic included); in WireTCP mode they cover the requests that
	// crossed the loopback socket — the mobile fleet's — and
	// WireFrameBytes additionally reports the socket bytes (payloads plus
	// frame headers) with WireRedials the clients' transparent redials.
	WireRequests, WireBytes int64
	WireFrameBytes          int64
	WireRedials             int64
}

// Run executes the scenario and returns its result.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if sc.Shards > 0 {
		cfg := replica.Config{
			BaseNodes:    sc.BaseNodes,
			Weights:      sc.Weights,
			Origin:       sc.Origin,
			MergeOptions: sc.MergeOptions,
			Acceptance:   sc.Acceptance,
			Observer:     sc.Observer,
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if sc.MessagePassing || sc.WireTCP {
			return nil, fmt.Errorf("sim: %w: MessagePassing is not supported with Shards set", replica.ErrBadConfig)
		}
		return runSharded(sc, cfg)
	}
	baseGen := workload.NewGenerator(workload.Config{
		Seed: sc.Seed * 31, Items: sc.Items, PCommutative: sc.PCommutative,
		HotItems: sc.HotItems, PHot: sc.PHot,
	})
	origin := baseGen.OriginState()
	cfg := replica.Config{
		BaseNodes:    sc.BaseNodes,
		Weights:      sc.Weights,
		Origin:       sc.Origin,
		MergeOptions: sc.MergeOptions,
		Acceptance:   sc.Acceptance,
		Observer:     sc.Observer,
	}
	// Scenarios are built from user input (flags); validate here so
	// misconfiguration comes back as an error instead of the constructor's
	// programmer-error panic.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cluster := replica.NewBaseCluster(origin, cfg)

	res := &Result{Scenario: sc}
	switch {
	case sc.MessagePassing || sc.WireTCP:
		if err := runMessagePassing(sc, cluster, res); err != nil {
			return nil, err
		}
	case sc.Concurrent:
		if err := runConcurrent(sc, cluster, res); err != nil {
			return nil, err
		}
	default:
		if err := runSerial(sc, cluster, res); err != nil {
			return nil, err
		}
	}
	res.Counts = cluster.Counters().Snapshot()
	res.Cost = res.Counts.Weighted(sc.Weights)
	res.FinalMaster = cluster.Master()
	return res, nil
}

// runSerial interleaves the fleet deterministically: per round, the base
// commits its traffic, then each mobile runs its tentative batch and
// connects.
func runSerial(sc Scenario, cluster *replica.BaseCluster, res *Result) error {
	mobiles := make([]*replica.MobileNode, sc.Mobiles)
	gens := make([]*workload.Generator, sc.Mobiles)
	for i := range mobiles {
		mobiles[i] = replica.NewMobileNode(fmt.Sprintf("m%d", i+1), cluster)
		gens[i] = workload.NewGenerator(workload.Config{
			Seed: sc.Seed + int64(i) + 1, Items: sc.Items, PCommutative: sc.PCommutative,
			HotItems: sc.HotItems, PHot: sc.PHot,
		})
	}
	crashRng := rand.New(rand.NewSource(sc.Seed*7 + 13))
	skipRng := rand.New(rand.NewSource(sc.Seed*11 + 5))
	for round := 0; round < sc.Rounds; round++ {
		if sc.WindowEveryRounds > 0 && round > 0 && round%sc.WindowEveryRounds == 0 {
			cluster.AdvanceWindow()
		}
		for k := 0; k < sc.BaseTxnsPerRound; k++ {
			if err := cluster.ExecBase(baseTxn(sc, round, k)); err != nil {
				return err
			}
		}
		for i, m := range mobiles {
			var journal bytes.Buffer
			crashing := sc.PCrash > 0 && crashRng.Float64() < sc.PCrash
			if crashing {
				if err := m.AttachJournal(&journal); err != nil {
					return err
				}
			}
			for k := 0; k < sc.TxnsPerRound; k++ {
				if err := m.Run(gens[i].Txn(tx.Tentative)); err != nil {
					return err
				}
				res.TentativeRun++
			}
			if crashing {
				// The device dies before connecting; a fresh node is
				// recovered from its journal and reconciles instead. No
				// tentative work was acknowledged-and-lost: the journal
				// covered the whole period.
				rec, rep, err := replica.RecoverMobileNode(m.ID, bytes.NewReader(journal.Bytes()))
				if err != nil {
					return fmt.Errorf("sim: recover %s: %w", m.ID, err)
				}
				if rep.Dropped > 0 {
					return fmt.Errorf("sim: recover %s: journal dropped %d committed transactions", m.ID, rep.Dropped)
				}
				// Re-establish durability for the rest of the period.
				journal.Reset()
				if err := rec.AttachJournal(&journal); err != nil {
					return fmt.Errorf("sim: rejournal %s: %w", m.ID, err)
				}
				res.Crashes++
				m = rec
				mobiles[i] = rec
			}
			if sc.PSkipConnect > 0 && skipRng.Float64() < sc.PSkipConnect && round < sc.Rounds-1 {
				// Still out of coverage: keep accumulating; the final
				// round always reconnects so nothing is left pending.
				continue
			}
			out, err := connect(sc, m, cluster)
			if err != nil {
				return err
			}
			res.FailedReexecutions += int64(out.Failed)
		}
	}
	return nil
}

// runConcurrent runs each mobile as a goroutine; the base traffic runs on
// its own goroutine. Rounds are loosely synchronized through the cluster's
// internal mutex only — the point is exercising the substrate under real
// concurrency.
func runConcurrent(sc Scenario, cluster *replica.BaseCluster, res *Result) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   int64
		ran      int64
	)
	record := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < sc.Rounds; round++ {
			for k := 0; k < sc.BaseTxnsPerRound; k++ {
				if err := cluster.ExecBase(baseTxn(sc, round, k)); err != nil {
					record(err)
					return
				}
			}
		}
	}()
	for i := 0; i < sc.Mobiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := replica.NewMobileNode(fmt.Sprintf("m%d", i+1), cluster)
			gen := workload.NewGenerator(workload.Config{
				Seed: sc.Seed + int64(i) + 1, Items: sc.Items, PCommutative: sc.PCommutative,
			})
			for round := 0; round < sc.Rounds; round++ {
				for k := 0; k < sc.TxnsPerRound; k++ {
					if err := m.Run(gen.Txn(tx.Tentative)); err != nil {
						record(err)
						return
					}
					mu.Lock()
					ran++
					mu.Unlock()
				}
				out, err := connect(sc, m, cluster)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				failed += int64(out.Failed)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.FailedReexecutions = failed
	res.TentativeRun = ran
	return firstErr
}

func connect(sc Scenario, m *replica.MobileNode, cluster *replica.BaseCluster) (*replica.ConnectOutcome, error) {
	// A journal-recovered node has no cluster yet; Bind hands it its
	// cluster (and charges the recovery) before reconnecting.
	if err := m.Bind(cluster); err != nil {
		return nil, err
	}
	if sc.Protocol == Reprocessing {
		return m.ConnectReprocess(), nil
	}
	return m.ConnectMerge()
}

// baseTxn deterministically derives the base-tier traffic from the round
// and slot so serial and concurrent modes issue identical base workloads.
func baseTxn(sc Scenario, round, k int) *tx.Transaction {
	gen := workload.NewGenerator(workload.Config{
		Seed:         sc.Seed*1000003 + int64(round)*101 + int64(k),
		Items:        sc.Items,
		PCommutative: sc.PCommutative,
	})
	t := gen.Txn(tx.Base)
	t.ID = fmt.Sprintf("Tb%d.%d", round, k)
	return t
}

// runMessagePassing drives the fleet through the BaseServer message
// channel: a pool of ServerWorkers request workers, one goroutine per
// mobile client, every reconnect a serialized round trip. With WireTCP the
// same fleet runs over real loopback TCP — a wire.Server fronts the base
// server and each client dials its own pooled transport.
func runMessagePassing(sc Scenario, cluster *replica.BaseCluster, res *Result) error {
	srv := replica.Serve(cluster, replica.WithWorkers(sc.ServerWorkers))
	defer srv.Close()
	if sc.DropEveryNth > 0 {
		srv.DropEveryNth(sc.DropEveryNth)
	}
	// dialClient yields each mobile's transport; over TCP every client
	// owns a pooled connection to the loopback listener.
	dialClient := func(ctx context.Context, id string) (*replica.Client, func(), error) {
		c, err := replica.DialContext(ctx, id, srv)
		return c, func() {}, err
	}
	var (
		ws      *wire.Server
		redials atomic.Int64
	)
	if sc.WireTCP {
		ws = wire.NewServer(srv, wire.ServerConfig{})
		addr, err := ws.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("sim: wire listen: %w", err)
		}
		defer ws.Close()
		dialClient = func(ctx context.Context, id string) (*replica.Client, func(), error) {
			tr := wire.Dial(addr.String(), wire.ClientConfig{})
			c, err := replica.DialTransport(ctx, id, tr)
			if err != nil {
				tr.Close()
				return nil, nil, err
			}
			return c, func() {
				_, n := tr.Stats()
				redials.Add(n)
				tr.Close()
			}, nil
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   int64
		ran      int64
	)
	record := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < sc.Rounds; round++ {
			for k := 0; k < sc.BaseTxnsPerRound; k++ {
				if err := srv.ExecBaseRemote(baseTxn(sc, round, k)); err != nil {
					record(err)
					return
				}
			}
		}
	}()
	for i := 0; i < sc.Mobiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, release, err := dialClient(context.Background(), fmt.Sprintf("m%d", i+1))
			if err != nil {
				record(err)
				return
			}
			defer release()
			gen := workload.NewGenerator(workload.Config{
				Seed: sc.Seed + int64(i) + 1, Items: sc.Items, PCommutative: sc.PCommutative,
				HotItems: sc.HotItems, PHot: sc.PHot,
			})
			for round := 0; round < sc.Rounds; round++ {
				for k := 0; k < sc.TxnsPerRound; k++ {
					if err := c.Run(gen.Txn(tx.Tentative)); err != nil {
						record(err)
						return
					}
					mu.Lock()
					ran++
					mu.Unlock()
				}
				var out *replica.ConnectOutcome
				if sc.Protocol == Reprocessing {
					out, err = c.ConnectReprocess()
				} else {
					out, err = c.ConnectMerge()
				}
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				failed += int64(out.Failed)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.FailedReexecutions = failed
	res.TentativeRun = ran
	res.WireRedials = redials.Load()
	reqs, in, out := srv.Stats()
	res.WireRequests = reqs
	res.WireBytes = in + out
	if ws != nil {
		ws.Close()
		// Over TCP the wire counters cover the traffic that actually
		// crossed the socket — the mobile fleet's — while base-tier
		// transactions stay in-process with the server, so payload and
		// frame totals describe the same requests.
		frames, fin, fout, _ := ws.Stats()
		pin, pout := ws.PayloadBytes()
		res.WireRequests = frames
		res.WireBytes = pin + pout
		res.WireFrameBytes = fin + fout
	}
	return firstErr
}
