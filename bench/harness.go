package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"tiermerge/internal/cost"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
	"tiermerge/internal/wire"
)

// flushPolicy is how the base tier under test makes commits durable. It is
// the same on every run and printed with every result.
const flushPolicy = "store.Disk segmented log; sync-before-ack: one fsync per acknowledged commit and window advance; checkpoint+truncate every window"

// tier is the base tier as the harness drives it: the served reconcile
// surface plus window, checkpoint and preview calls, over one shard or
// several.
type tier struct {
	replica.BaseTier
	shards     []*replica.BaseCluster
	advance    func() int
	checkpoint func() error
	closeStore func() error
	preview    func(replica.Checkout, *history.Augmented) (*merge.Report, error)
	shardOf    func(model.Item) int
}

// openTier opens the durable base exactly as `tiermerge serve -data` does:
// OpenBase for one shard, OpenShardedBase for more. It returns the number
// of journal records recovery replayed (0 on a fresh directory).
func openTier(dir string, origin model.State, shards int, o obs.Observer) (*tier, int, error) {
	cfg := replica.Config{Observer: o}
	if shards == 1 {
		b, rec, err := replica.OpenBase(dir, origin, cfg)
		if err != nil {
			return nil, 0, err
		}
		return &tier{BaseTier: b, shards: []*replica.BaseCluster{b},
			advance: b.AdvanceWindow, checkpoint: b.Checkpoint, closeStore: b.CloseStore,
			preview: b.Preview, shardOf: func(model.Item) int { return 0 }}, rec.Records, nil
	}
	sb, recs, err := replica.OpenShardedBase(dir, origin, shards, cfg)
	if err != nil {
		return nil, 0, err
	}
	t := &tier{BaseTier: sb, advance: sb.AdvanceWindow, checkpoint: sb.Checkpoint,
		closeStore: sb.CloseStore, preview: sb.Preview, shardOf: sb.ShardOf}
	records := 0
	for k, rec := range recs {
		t.shards = append(t.shards, sb.Shard(k))
		records += rec.Records
	}
	return t, records, nil
}

// counts sums the cost counters over the shards.
func (t *tier) counts() cost.Counts {
	var total cost.Counts
	for _, b := range t.shards {
		total.Add(b.Counters().Snapshot())
	}
	return total
}

// historyLen is the number of base entries in the current window, summed
// over the shards.
func (t *tier) historyLen() int {
	n := 0
	for _, b := range t.shards {
		n += b.HistoryLen()
	}
	return n
}

// mobile is one fleet identity: its client and the window it checked out
// in. A mobile whose window has closed re-dials before its next session,
// so no reconnect falls back to reprocessing for window expiry.
type mobile struct {
	id     string
	c      *replica.Client
	window int
}

// client is one closed-loop load goroutine: one pooled TCP connection, its
// share of the fleet, its input feed and its samples.
type client struct {
	idx     int
	tr      *wire.Transport
	via     replica.Transport // tr, or timed in a traced pass
	timed   *timedTransport   // the timing wrapper of a traced pass; nil otherwise
	mobiles []*mobile
	feed    feed
	nextNo  int       // number of the next session to generate
	queue   []session // the coming window's sessions

	reconnectMs []float64
	baseMs      []float64
	tally       tally

	probe *probe // layer probes of a traced pass; nil otherwise
}

// tally is what a client's sessions added up to.
type tally struct {
	reconnects   int
	baseTxns     int
	tentative    int // tentative transactions submitted
	saved        int
	reprocessed  int
	backedOut    int
	fallbacks    int
	reexecFailed int   // re-executions the base tier reported as failed
	failedOps    int   // errors, and reconnects that did not account for T
	deposited    int64 // acknowledged Deposit amounts (deposit-only workloads)
	badIDErrs    int   // BadIDs naming something other than a submitted tentative txn
}

func (a *tally) add(b tally) {
	a.reconnects += b.reconnects
	a.baseTxns += b.baseTxns
	a.tentative += b.tentative
	a.saved += b.saved
	a.reprocessed += b.reprocessed
	a.backedOut += b.backedOut
	a.fallbacks += b.fallbacks
	a.reexecFailed += b.reexecFailed
	a.failedOps += b.failedOps
	a.deposited += b.deposited
	a.badIDErrs += b.badIDErrs
}

// env is one set-up system under test: durable base, server, listener and
// dialed fleet.
type env struct {
	sp      *spec
	dir     string
	origin  model.State
	tier    *tier
	srv     *replica.BaseServer
	ws      *wire.Server
	addr    string
	clients []*client
	window  int // current window id
	perWin  int // sessions per client per window
	tracer  *tracer
	obsTr   *obs.Tracer
	setupS  float64
	// warmDeposited is what the warm-up's acknowledged deposits added to
	// the total balance before the measured loop began.
	warmDeposited int64
	// tailBytes sums the size the log tail had reached at each barrier, and
	// tailCommits the forced writes that produced those tails (forcedAtCkpt
	// is the counter at the last checkpoint): the log's bytes per commit.
	tailBytes, tailCommits, forcedAtCkpt int64
}

// dataDir is where the base tier's segments live.
func (e *env) dataDir() string { return filepath.Join(e.dir, "data") }

// warmSessions is the number of sessions each client runs untimed during
// set-up, before the first measured window: connections are pooled, code
// paths and the page cache are warm, and the first window has been
// advanced and checkpointed.
const warmSessions = 8

// setUp builds an env in a fresh directory under root: open the store,
// serve, listen, dial, check out the fleet, generate the first window and
// run the warm-up. A traced env carries the span recorder, the layer
// probes and an obs.Tracer on the public observer hook.
func setUp(sp *spec, root string, seed int64, perWin int, traced bool) (*env, error) {
	start := time.Now()
	e := &env{sp: sp, origin: sp.origin(), perWin: perWin}
	dir, err := os.MkdirTemp(root, sp.Name+"-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	var o obs.Observer
	if traced {
		e.tracer = newTracer()
		e.obsTr = obs.NewTracer()
		o = e.obsTr
	}
	openSpan := e.tracer.begin(0, 0, "open")
	e.tier, _, err = openTier(e.dataDir(), e.origin, sp.Shards, o)
	e.tracer.end(openSpan)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv = replica.Serve(e.tier.BaseTier, replica.WithWorkers(2))
	e.ws = wire.NewServer(e.srv, wire.ServerConfig{})
	bound, err := e.ws.Listen("127.0.0.1:0")
	if err != nil {
		e.tearDown()
		return nil, err
	}
	e.addr = bound.String()
	e.window = e.tier.shards[0].WindowID()

	ctx := context.Background()
	for g := 0; g < clients; g++ {
		c := &client{idx: g, tr: wire.Dial(e.addr, wire.ClientConfig{}), feed: sp.newFeed(seed, g, sp)}
		c.via = c.tr
		if traced {
			c.probe = newProbe(e, c)
			c.timed = &timedTransport{inner: c.tr, tr: e.tracer, client: g}
			c.via = c.timed
		}
		e.clients = append(e.clients, c)
		for i := 0; i < sp.mobilesPerClient(); i++ {
			m := &mobile{id: fmt.Sprintf("m%d.%d", g, i), window: e.window}
			if m.c, err = replica.DialTransport(ctx, m.id, c.via); err != nil {
				e.tearDown()
				return nil, fmt.Errorf("dial %s: %w", m.id, err)
			}
			c.mobiles = append(c.mobiles, m)
		}
	}
	// Warm-up window, then the first measured window's inputs.
	e.generate(warmSessions)
	if err := e.runWindow(false); err != nil {
		e.tearDown()
		return nil, err
	}
	if err := e.barrier(); err != nil {
		e.tearDown()
		return nil, err
	}
	for _, c := range e.clients {
		e.warmDeposited += c.tally.deposited
		c.reconnectMs, c.baseMs, c.tally = nil, nil, tally{}
	}
	e.tailBytes, e.tailCommits = 0, 0
	e.generate(perWin)
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// tearDown stops the server and closes the store; it leaves the data
// directory in place (recovery is measured from it).
func (e *env) tearDown() {
	for _, c := range e.clients {
		c.tr.Close()
	}
	if e.ws != nil {
		e.ws.Close()
		e.ws = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.tier != nil {
		e.tier.closeStore()
	}
}

// generate mints every client's next n sessions. Called between windows:
// input generation is harness work and is never inside a timed interval.
func (e *env) generate(n int) {
	for _, c := range e.clients {
		c.queue = c.queue[:0]
		for i := 0; i < n; i++ {
			c.queue = append(c.queue, c.feed.next(c.nextNo))
			c.nextNo++
		}
	}
}

// barrier closes the window: advance it and checkpoint the log, so prefix
// length and log size are bounded and the same in every window.
func (e *env) barrier() error {
	root := e.tracer.begin(0, 0, "barrier")
	s := e.tracer.begin(0, root, "advance_window")
	e.window = e.tier.advance()
	e.tracer.end(s)
	e.tailBytes += segmentBytes(e.dataDir(), "tail-")
	e.tailCommits += e.tier.counts().BaseForcedWrites - e.forcedAtCkpt
	s = e.tracer.begin(0, root, "checkpoint")
	err := e.tier.checkpoint()
	e.tracer.end(s)
	e.tracer.end(root)
	e.forcedAtCkpt = e.tier.counts().BaseForcedWrites
	if p := e.clients[0].probe; p != nil {
		p.ckptBytes = append(p.ckptBytes, float64(segmentBytes(e.dataDir(), "ckpt-")))
		p.log.reset()
	}
	return err
}

// runWindow runs every client's queued sessions concurrently and returns
// when all are done. timed says whether samples are kept.
func (e *env) runWindow(timed bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for _, s := range c.queue {
				if err := e.runSession(c, s, timed); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSession plays one disconnect/reconnect cycle: B base transactions on
// the tier (each timed), T tentative transactions on the mobile, then the
// reconnect (timed from the call to the ack plus re-checkout). Operation
// errors are counted, not returned; the returned error is a harness
// failure that aborts the run.
func (e *env) runSession(c *client, s session, timed bool) error {
	ctx := context.Background()
	tr := e.tracer
	root := tr.begin(c.idx, 0, "session")
	defer tr.end(root)
	c.timed.under(root)

	for _, t := range s.base {
		sp := tr.begin(c.idx, root, "execbase")
		t0 := time.Now()
		err := e.tier.ExecBase(t)
		d := time.Since(t0)
		tr.end(sp)
		c.tally.baseTxns++
		if err != nil {
			c.tally.failedOps++
			continue
		}
		if timed {
			c.baseMs = append(c.baseMs, ms(d))
		}
		if e.sp.DepositOnly {
			c.tally.deposited += int64(t.Params["amt"])
		}
	}
	if c.probe != nil {
		c.probe.log.addBase(s.base)
		if c.probe.due(s.no) {
			// A probe session reconnects through the layer under
			// measurement instead of the wire; see probe.run.
			return c.probe.run(root, s)
		}
	}

	m := c.mobiles[s.mobile]
	if m.window != e.window {
		sp := tr.begin(c.idx, root, "recheckout")
		fresh, err := replica.DialTransport(ctx, m.id, c.via)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("re-checkout %s: %w", m.id, err)
		}
		m.c, m.window = fresh, e.window
	}
	sp := tr.begin(c.idx, root, "run")
	for _, t := range s.tent {
		if err := m.c.Run(t); err != nil {
			tr.end(sp)
			return fmt.Errorf("run %s on %s: %w", t.ID, m.id, err)
		}
	}
	tr.end(sp)

	sp = tr.begin(c.idx, root, "connect")
	c.timed.under(sp)
	t0 := time.Now()
	out, err := m.c.ConnectMergeContext(ctx)
	d := time.Since(t0)
	tr.end(sp)
	if timed && err == nil {
		c.reconnectMs = append(c.reconnectMs, ms(d))
	}
	c.account(e.sp, s, out, err)
	if c.probe != nil && err == nil {
		c.probe.log.addReconnect(s, out.BadIDs)
	}
	return nil
}

// account books one reconnect's outcome and applies the per-reconnect
// correctness checks: all T transactions accounted for, and BadIDs naming
// only this session's tentative transactions.
func (c *client) account(sp *spec, s session, out *replica.ConnectOutcome, err error) {
	c.tally.reconnects++
	c.tally.tentative += len(s.tent)
	if err != nil {
		c.tally.failedOps++
		return
	}
	c.tally.saved += out.Saved
	c.tally.reprocessed += out.Reprocessed
	c.tally.backedOut += len(out.BadIDs)
	c.tally.reexecFailed += out.Failed
	if out.Fallback != replica.FallbackNone {
		c.tally.fallbacks++
	}
	if out.Saved+out.Reprocessed != len(s.tent) {
		c.tally.failedOps++
	}
	for _, id := range out.BadIDs {
		ok := false
		for _, t := range s.tent {
			if t.ID == id {
				ok = true
				break
			}
		}
		if !ok {
			c.tally.badIDErrs++
		}
	}
	if sp.DepositOnly && out.Saved+out.Reprocessed == len(s.tent) {
		c.tally.deposited += int64(depositTotal(s.tent))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sumState(s model.State) model.Value {
	var sum model.Value
	for _, it := range s.Items() {
		sum += s.Get(it)
	}
	return sum
}

// loopResult is what one measured loop produced.
type loopResult struct {
	measuredS   float64 // program time: windows plus advance/checkpoint
	windows     int
	tally       tally
	reconnectMs []float64 // arrival order per client, clients concatenated
	baseMs      []float64
	allocBytes  uint64
	gcPauseNs   uint64
	wireIn      int64 // frame bytes, TCP server side
	wireOut     int64
	frames      int64
	counts      cost.Counts // tier counter deltas across the loop
	redials     int64
}

// measure runs whole windows until the program has been measured for at
// least seconds (or, for a quick run, until maxReconnects), then stops
// without a final advance so the log tail holds exactly one window.
func (e *env) measure(seconds float64, maxReconnects int) (*loopResult, error) {
	res := &loopResult{}
	fr0, in0, out0, _ := e.ws.Stats()
	counts0 := e.tier.counts()
	var m0, m1 runtime.MemStats
	done := 0
	for {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := e.runWindow(true); err != nil {
			return nil, err
		}
		res.windows++
		done += e.perWin * clients
		last := res.measuredS+time.Since(t0).Seconds() >= seconds ||
			(maxReconnects > 0 && done >= maxReconnects)
		if !last {
			if err := e.barrier(); err != nil {
				return nil, err
			}
		}
		res.measuredS += time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		res.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		if last {
			break
		}
		e.generate(e.perWin)
	}
	fr1, in1, out1, _ := e.ws.Stats()
	res.wireIn, res.wireOut, res.frames = in1-in0, out1-out0, fr1-fr0
	res.counts = e.tier.counts()
	subCounts(&res.counts, counts0)
	for _, c := range e.clients {
		res.tally.add(c.tally)
		res.reconnectMs = append(res.reconnectMs, c.reconnectMs...)
		res.baseMs = append(res.baseMs, c.baseMs...)
		_, r := c.tr.Stats()
		res.redials += r
	}
	return res, nil
}

// subCounts subtracts the counters a loop started from, field by field
// (every cost.Counts field is an int64).
func subCounts(c *cost.Counts, from cost.Counts) {
	cv, fv := reflect.ValueOf(c).Elem(), reflect.ValueOf(from)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() - fv.Field(i).Int())
	}
}

// segmentBytes sums the sizes of the segment files under dir whose names
// start with prefix, over every shard directory.
func segmentBytes(dir, prefix string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), prefix) {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
