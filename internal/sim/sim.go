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
	"errors"
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
	if p < Merging || p > Reprocessing {
		return "unknown"
	}
	return [...]string{Merging: "merging", Reprocessing: "reprocessing"}[p]
}

// Mode chooses how each mobile reaches the base and whether mobiles run
// as goroutines; every mode runs the same fleet, schedule and base feed.
type Mode int

// Modes.
const (
	// Serial interleaves the fleet on one goroutine, bit-reproducibly.
	Serial Mode = iota
	// Concurrent runs each mobile as a goroutine calling the tier.
	Concurrent
	// Messages runs each mobile as a goroutine and a replica.Client of a
	// BaseServer over its in-process transport, every call a payload.
	Messages
	// TCP is Messages over loopback TCP: a wire.Server fronts the
	// BaseServer and each client dials its own pooled transport.
	TCP
)

func (m Mode) String() string {
	if m < Serial || m > TCP {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return [...]string{"serial", "concurrent", "messages", "tcp"}[m]
}

// wired reports whether sessions are Clients of a BaseServer.
func (m Mode) wired() bool { return m == Messages || m == TCP }

// Scenario configures one simulation run.
type Scenario struct {
	// Seed drives every generator in the scenario.
	Seed int64
	// Mode selects how mobiles reach the base (default Serial).
	Mode Mode
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
	// Acceptance validates re-executed tentative transactions (nil accepts
	// all successful re-executions).
	Acceptance replica.Acceptance
	// PCrash is the per-round probability that a mobile node crashes
	// before connecting and is recovered from its journal (Serial and
	// Concurrent modes on a plain cluster only).
	PCrash float64
	// HotItems and PHot forward the workload generator's access skew
	// (plain cluster only).
	HotItems int
	PHot     float64
	// PSkipConnect is the per-round probability that a mobile stays
	// offline, so its history grows into a bigger merge next round.
	PSkipConnect float64
	// DropEveryNth makes the message transport lose every nth response
	// (Messages and TCP modes only; see replica.WithDropEveryNth); clients
	// retry and the server's applied table keeps reconnects exactly-once.
	DropEveryNth int64
	// Observer forwards replica.Config.Observer: a span event for every
	// reconnect phase the scenario drives (nil observes nothing).
	Observer obs.Observer
	// Shards > 0 partitions the base tier across that many clusters
	// (replica.ShardedBase) fed the account workload (shardedTier); 1 is
	// its single-shard baseline, 0 the plain cluster and item generator.
	Shards int
	// PCrossShard is the probability a tentative transaction is a transfer
	// to another mobile's account on a different shard, exercising the
	// cross-shard merge (Shards > 0 only).
	PCrossShard float64
}

func (s Scenario) withDefaults() Scenario {
	orDefault(&s.Mobiles, 4)
	orDefault(&s.Rounds, 3)
	orDefault(&s.TxnsPerRound, 5)
	orDefault(&s.BaseTxnsPerRound, 3)
	orDefault(&s.Items, 64)
	orDefault(&s.PCommutative, 0.6)
	orDefault(&s.Protocol, Merging)
	orDefault(&s.BaseNodes, 1)
	orDefault(&s.Weights, cost.DefaultWeights())
	return s
}

// orDefault sets *v to d when *v is the zero value.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
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
	// WireRequests and WireBytes (payload bytes) report the transport's
	// real traffic in the wired modes: every server request in Messages
	// mode, base traffic included; in TCP mode the mobile fleet's requests
	// that crossed the socket, with WireFrameBytes the socket bytes
	// (payloads plus frame headers) and WireRedials the clients' redials.
	WireRequests, WireBytes int64
	WireFrameBytes          int64
	WireRedials             int64
}

// check refuses a knob the scenario set that its mode or tier cannot
// honour, rather than running without it.
func (s Scenario) check() error {
	mode := s.Mode.String() + " mode"
	for _, r := range []struct {
		bad bool
		why string
	}{
		{s.Mobiles < 0 || s.Rounds < 0, "a negative Mobiles or Rounds"},
		{s.Mode < Serial || s.Mode > TCP, "Mode " + s.Mode.String()},
		{s.PCrash > 0 && s.Mode.wired(), "PCrash in " + mode},
		{s.PCrash > 0 && s.Shards > 0, "PCrash on a sharded tier"},
		{(s.HotItems > 0 || s.PHot > 0) && s.Shards > 0, "HotItems on a sharded tier"},
		{s.DropEveryNth != 0 && !s.Mode.wired(), "DropEveryNth in " + mode},
		{s.PCrossShard > 0 && s.Shards == 0, "PCrossShard on a plain cluster"},
	} {
		if r.bad {
			return fmt.Errorf("sim: %w: %s is not supported", replica.ErrBadConfig, r.why)
		}
	}
	return nil
}

// Run executes the scenario and returns its result.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.check(); err != nil {
		return nil, err
	}
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
	f := &fleet{sc: sc, sched: schedule(sc)}
	if sc.Shards > 0 {
		f.tier = shardedTier(sc, cfg)
	} else {
		f.tier = plainTier(sc, cfg)
	}
	res := &Result{Scenario: sc}
	err := f.open()
	if err == nil {
		err = f.run()
	}
	if f.srv != nil {
		f.shut(res)
	}
	if err != nil {
		return nil, err
	}
	res.Counts = f.tier.counts()
	res.Cost = res.Counts.Weighted(sc.Weights)
	res.FinalMaster = f.tier.Master()
	res.TentativeRun, res.FailedReexecutions, res.Crashes = f.ran.Load(), f.failed.Load(), f.crashes.Load()
	return res, nil
}

// tier is the base a fleet reconciles with — a plain cluster or a
// ShardedBase — and the transactions it is fed.
type tier struct {
	replica.BaseTier
	cluster *replica.BaseCluster // binds journal-recovered nodes; nil if sharded
	advance func() int
	counts  func() cost.Counts
	node    func(id string) *replica.MobileNode
	baseTxn func(round, k int) *tx.Transaction
	feed    func(i int) func(round, k int) *tx.Transaction // mobile i's source
}

// plainTier is one cluster fed by the item generator.
func plainTier(sc Scenario, cfg replica.Config) *tier {
	genCfg := func(seed int64) workload.Config {
		return workload.Config{Seed: seed, Items: sc.Items, PCommutative: sc.PCommutative,
			HotItems: sc.HotItems, PHot: sc.PHot}
	}
	b := replica.NewBaseCluster(workload.NewGenerator(genCfg(sc.Seed*31)).OriginState(), cfg)
	return &tier{
		BaseTier: b,
		cluster:  b,
		advance:  b.AdvanceWindow,
		counts:   func() cost.Counts { return b.Counters().Snapshot() },
		node:     func(id string) *replica.MobileNode { return replica.NewMobileNode(id, b) },
		baseTxn: func(round, k int) *tx.Transaction {
			// Derived from the round and slot alone, and without the
			// mobiles' skew.
			gen := workload.NewGenerator(workload.Config{
				Seed:  sc.Seed*1000003 + int64(round)*101 + int64(k),
				Items: sc.Items, PCommutative: sc.PCommutative,
			})
			t := gen.Txn(tx.Base)
			t.ID = fmt.Sprintf("Tb%d.%d", round, k)
			return t
		},
		feed: func(i int) func(round, k int) *tx.Transaction {
			gen := workload.NewGenerator(genCfg(sc.Seed + int64(i) + 1))
			return func(int, int) *tx.Transaction { return gen.Txn(tx.Tentative) }
		},
	}
}

// draw is one mobile's fate in one round.
type draw struct{ crash, skip bool }

// schedule draws every crash and skipped connect up front, in the serial
// (round, mobile) order, so every mode reads the same draws. The final
// round always connects, so nothing is left pending.
func schedule(sc Scenario) []draw {
	crashRng := rand.New(rand.NewSource(sc.Seed*7 + 13))
	skipRng := rand.New(rand.NewSource(sc.Seed*11 + 5))
	sched := make([]draw, sc.Rounds*sc.Mobiles)
	for j := range sched {
		sched[j].crash = sc.PCrash > 0 && crashRng.Float64() < sc.PCrash
		sched[j].skip = sc.PSkipConnect > 0 && skipRng.Float64() < sc.PSkipConnect &&
			j/sc.Mobiles < sc.Rounds-1
	}
	return sched
}

// session is one mobile's link to the base: a MobileNode calling the tier
// (Serial, Concurrent) or a Client over a transport (Messages, TCP).
type session struct {
	node   *replica.MobileNode
	client *replica.Client
	next   func(round, k int) *tx.Transaction
}

// fleet is one run: the tier, the sessions and schedule every mode shares,
// the wired modes' servers and transports, and the tallies.
type fleet struct {
	sc       Scenario
	tier     *tier
	sched    []draw
	sessions []*session
	exec     func(*tx.Transaction) error // base submissions; via srv if wired
	srv      *replica.BaseServer
	ws       *wire.Server
	trs      []*wire.Transport

	ran, failed, crashes atomic.Int64
}

// open opens every mobile's session, serving the tier first in the wired
// modes.
func (f *fleet) open() error {
	var addr string
	f.exec = f.tier.ExecBase
	if f.sc.Mode.wired() {
		f.srv = replica.Serve(f.tier.BaseTier, replica.WithDropEveryNth(f.sc.DropEveryNth))
		f.exec = f.srv.ExecBaseRemote
	}
	if f.sc.Mode == TCP {
		ws := wire.NewServer(f.srv, wire.ServerConfig{})
		a, err := ws.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("sim: wire listen: %w", err)
		}
		f.ws, addr = ws, a.String()
	}
	for i := range f.sc.Mobiles {
		s, id := &session{next: f.tier.feed(i)}, fmt.Sprintf("m%d", i+1)
		f.sessions = append(f.sessions, s)
		var err error
		switch f.sc.Mode {
		case Messages:
			s.client, err = replica.Dial(id, f.srv)
		case TCP:
			tr := wire.Dial(addr, wire.ClientConfig{})
			f.trs = append(f.trs, tr)
			s.client, err = replica.DialTransport(context.Background(), id, tr)
		default:
			s.node = f.tier.node(id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// shut closes a wired mode's transports and servers and reports their
// traffic into res.
func (f *fleet) shut(res *Result) {
	for _, tr := range f.trs {
		_, n := tr.Stats()
		res.WireRedials += n
		tr.Close()
	}
	reqs, in, out := f.srv.Stats()
	res.WireRequests, res.WireBytes = reqs, in+out
	if f.ws != nil {
		f.ws.Close()
		// Over TCP the wire counters cover the traffic that actually
		// crossed the socket — the mobile fleet's — while base-tier
		// transactions stay in-process with the server, so payload and
		// frame totals describe the same requests.
		frames, fin, fout, _ := f.ws.Stats()
		pin, pout := f.ws.PayloadBytes()
		res.WireRequests, res.WireBytes, res.WireFrameBytes = frames, pin+pout, fin+fout
	}
	f.srv.Close()
}

// run drives the fleet: Serial interleaves the base feed and every mobile
// on this goroutine; the other modes run each mobile as a goroutine that
// starts round r once the base has committed round r's traffic.
func (f *fleet) run() error {
	if f.sc.Mode == Serial {
		for round := range f.sc.Rounds {
			if err := f.baseRound(round); err != nil {
				return err
			}
			for i := range f.sessions {
				if err := f.period(i, round); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ready := make([]chan struct{}, f.sc.Rounds)
	for r := range ready {
		ready[r] = make(chan struct{})
	}
	errs := make([]error, len(f.sessions)+1)
	var wg sync.WaitGroup
	wg.Add(len(errs))
	go func() {
		defer wg.Done()
		for round, c := range ready {
			if errs[0] == nil {
				errs[0] = f.baseRound(round)
			}
			close(c) // even after a failure, so no mobile waits forever
		}
	}()
	for i := range f.sessions {
		go func() {
			defer wg.Done()
			for round := 0; round < len(ready) && errs[i+1] == nil; round++ {
				<-ready[round]
				errs[i+1] = f.period(i, round)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// baseRound commits a round's base traffic, advancing the window first at
// every WindowEveryRounds boundary.
func (f *fleet) baseRound(round int) error {
	if w := f.sc.WindowEveryRounds; w > 0 && round > 0 && round%w == 0 {
		f.tier.advance()
	}
	for k := range f.sc.BaseTxnsPerRound {
		if err := f.exec(f.tier.baseTxn(round, k)); err != nil {
			return err
		}
	}
	return nil
}

// period is mobile i's disconnection period in one round: its tentative
// batch, the scheduled crash, and the connect unless it stays offline.
func (f *fleet) period(i, round int) error {
	s, d := f.sessions[i], f.sched[round*f.sc.Mobiles+i]
	var journal bytes.Buffer
	if d.crash {
		if err := s.node.AttachJournal(&journal); err != nil {
			return err
		}
	}
	run := s.node.Run
	if s.client != nil {
		run = s.client.Run
	}
	for k := range f.sc.TxnsPerRound {
		if err := run(s.next(round, k)); err != nil {
			return err
		}
		f.ran.Add(1)
	}
	if d.crash {
		// The node dies before connecting; a fresh one is recovered from
		// the journal, which covered the whole period, and journals the
		// rest of it.
		rec, rep, err := replica.RecoverMobileNode(s.node.ID, bytes.NewReader(journal.Bytes()))
		switch {
		case err != nil:
			return fmt.Errorf("sim: recover %s: %w", s.node.ID, err)
		case rep.TornTail:
			return fmt.Errorf("sim: recover %s: journal torn at record %d", s.node.ID, rep.TornRecord)
		}
		journal.Reset()
		if err := rec.AttachJournal(&journal); err != nil {
			return fmt.Errorf("sim: rejournal %s: %w", s.node.ID, err)
		}
		f.crashes.Add(1)
		s.node = rec
	}
	if d.skip {
		return nil // still out of coverage: keep accumulating
	}
	out, err := f.connect(s)
	if err != nil {
		return err
	}
	f.failed.Add(int64(out.Failed))
	return nil
}

// connect reconciles s with the base under the scenario's protocol.
func (f *fleet) connect(s *session) (*replica.ConnectOutcome, error) {
	switch {
	case s.client == nil:
		return connectNode(f.sc.Protocol, s.node, f.tier.cluster)
	case f.sc.Protocol == Reprocessing:
		return s.client.ConnectReprocess()
	}
	return s.client.ConnectMerge()
}

// connectNode reconciles a MobileNode under p. A journal-recovered node
// has no cluster yet: Bind hands it b, charging the recovery, first. b is
// nil on a sharded tier, whose nodes are never recovered.
func connectNode(p Protocol, m *replica.MobileNode, b *replica.BaseCluster) (*replica.ConnectOutcome, error) {
	if b != nil {
		if err := m.Bind(b); err != nil {
			return nil, err
		}
	}
	if p == Reprocessing {
		return m.ConnectReprocess(), nil
	}
	return m.ConnectMerge()
}
