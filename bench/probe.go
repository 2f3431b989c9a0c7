package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"tiermerge/internal/expr"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/lockmgr"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/prune"
	"tiermerge/internal/replica"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// The layer probes of a traced pass measure each layer from outside, with
// no change to program code. One session in probeEvery per client is a
// probe session (a prime stride, so probes visit every position of a window
// and see every prefix length); probe sessions alternate between two kinds:
//
//   - a direct session reconnects by calling the tier itself
//     (CheckoutReplica, Preview, Merge) instead of going through the wire,
//     and before the merge replays every layer single-threaded on inputs
//     of the same size: Hm as run, Hb rebuilt to the live prefix from the
//     window's issued base transactions plus a forwarded-update stand-in
//     per earlier reconnect;
//   - a frame session reconnects a client whose transport hands frames
//     straight to BaseServer.ServeFrame, so the envelope handling is timed
//     without a socket, and sends the same (idempotent) checkout frame
//     over TCP as well to price the socket.
const probeEvery = 17

// probeMobile prefixes the mobile IDs direct sessions check out under, so
// the program's own trace events of those merges can be told apart.
const probeMobile = "probe"

// windowLog is what the base history of the current window holds, as far
// as the harness can know it from outside: the base transactions it
// issued and one stand-in per reconnect for the forwarded updates and
// re-executions the merge installed. Shared by the clients.
type windowLog struct {
	mu      sync.Mutex
	entries []*tx.Transaction
	seq     int
}

// copyAsBase returns a private copy of t as a base transaction called id.
// A Transaction fills its static-set cache lazily and without a lock, and
// the log is read by both clients: so the log never holds the instances the
// program was handed, and a copy's cache is filled here, before it is
// shared.
func copyAsBase(t *tx.Transaction, id string) *tx.Transaction {
	cp := &tx.Transaction{ID: id, Type: t.Type, Kind: tx.Base, Params: t.Params, Body: t.Body, InverseBody: t.InverseBody}
	cp.StaticReadSet()
	return cp
}

func (l *windowLog) addBase(ts []*tx.Transaction) {
	l.mu.Lock()
	for _, t := range ts {
		l.entries = append(l.entries, copyAsBase(t, t.ID))
	}
	l.mu.Unlock()
}

// addReconnect records what a reconnect appended to the base history: one
// forwarded-updates transaction over the items the session wrote, and one
// re-executed copy per backed-out transaction.
func (l *windowLog) addReconnect(s session, badIDs []string) {
	bad := make(map[string]bool, len(badIDs))
	for _, id := range badIDs {
		bad[id] = true
	}
	var body []tx.Stmt
	seen := make(model.ItemSet)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range s.tent {
		if bad[t.ID] {
			l.entries = append(l.entries, copyAsBase(t, t.ID+"@base"))
			continue
		}
		for _, it := range copyAsBase(t, t.ID).StaticWriteSet().Items() {
			if !seen.Has(it) {
				seen.Add(it)
				body = append(body, tx.Update(it, expr.Add(expr.Var(it), expr.Const(1))))
			}
		}
	}
	if len(body) > 0 {
		l.seq++
		fwd := &tx.Transaction{Type: "forwarded-updates", Body: body}
		l.entries = append(l.entries, copyAsBase(fwd, fmt.Sprintf("Ufwd.%d", l.seq)))
	}
}

func (l *windowLog) snapshot() []*tx.Transaction {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tx.Transaction(nil), l.entries...)
}

func (l *windowLog) reset() {
	l.mu.Lock()
	l.entries = nil
	l.mu.Unlock()
}

// probe is one client's layer probes and their samples. Durations are
// recorded as spans; everything that is not a duration is summed here.
type probe struct {
	e      *env
	c      *client
	log    *windowLog
	frame  *mobile // the client reconnecting through ServeFrame
	framed *frameTransport
	disk   *store.Disk // scratch engine for the write+sync probe
	kind   int         // alternates direct and frame sessions

	directN, frameN  int
	baseEntries      int // Σ rebuilt Hb lengths
	edges            int
	affected         int
	savedAffected    int
	walBytes, walTxn int
	locks, lockTxns  int
	socketMs         []float64 // Call − ServeFrame on the same checkout frame
	admitInstallMs   []float64 // Merge − Preview on the same input
	ckptBytes        []float64 // checkpoint size after each checkpoint (client 0's probe)
}

func newProbe(e *env, c *client) *probe {
	p := &probe{e: e, c: c}
	if c.idx == 0 {
		p.log = &windowLog{}
	} else {
		p.log = e.clients[0].probe.log
	}
	p.framed = &frameTransport{p: p}
	p.frame = &mobile{id: fmt.Sprintf("frame%d", c.idx)}
	return p
}

// add sums q's samples into p.
func (p *probe) add(q *probe) {
	p.directN += q.directN
	p.frameN += q.frameN
	p.baseEntries += q.baseEntries
	p.edges += q.edges
	p.affected += q.affected
	p.savedAffected += q.savedAffected
	p.walBytes += q.walBytes
	p.walTxn += q.walTxn
	p.locks += q.locks
	p.lockTxns += q.lockTxns
	p.socketMs = append(p.socketMs, q.socketMs...)
	p.admitInstallMs = append(p.admitInstallMs, q.admitInstallMs...)
	p.ckptBytes = append(p.ckptBytes, q.ckptBytes...)
}

// due reports whether the coming session is a probe session.
func (p *probe) due(sessionNo int) bool { return sessionNo%probeEvery == probeEvery-1 }

// run plays a probe session's reconnect.
func (p *probe) run(root int64, s session) error {
	p.kind++
	if p.kind%2 == 1 {
		return p.direct(root, s)
	}
	return p.framedSession(root, s)
}

// timeSpan runs f as a span called name and returns its duration.
func (p *probe) timeSpan(parent int64, name string, f func()) time.Duration {
	id := p.e.tracer.begin(p.c.idx, parent, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	p.e.tracer.end(id)
	return d
}

// direct reconnects through the tier's own calls and replays the layers.
func (p *probe) direct(root int64, s session) error {
	e := p.e
	id := fmt.Sprintf("%s%d", probeMobile, p.c.idx)
	var (
		ck  replica.Checkout
		hm  *history.Augmented
		rep *merge.Report
		out *replica.ConnectOutcome
		err error
	)
	p.timeSpan(root, "replica.checkout", func() { ck = e.tier.CheckoutReplica(id) })
	p.timeSpan(root, "history.run", func() { hm, err = history.Run(history.New(s.tent...), ck.Origin) })
	if err != nil {
		return fmt.Errorf("probe: run Hm: %w", err)
	}
	p.timeSpan(root, "replica.preview", func() { rep, err = e.tier.preview(ck, hm) })
	if err != nil {
		return fmt.Errorf("probe: preview: %w", err)
	}
	// The first preview pays for a cold prefix as a real reconnect does, and
	// is the one reported. The merge below finds the prefix warm, so the
	// admission share is taken against a second, equally warm preview.
	warm := p.timeSpan(root, "replica.preview_warm", func() { _, err = e.tier.preview(ck, hm) })
	if err != nil {
		return fmt.Errorf("probe: preview: %w", err)
	}
	for _, id := range rep.AffectedIDs {
		p.affected++
		for _, sid := range rep.SavedIDs {
			if sid == id {
				p.savedAffected++
				break
			}
		}
	}
	replay := e.tracer.begin(p.c.idx, root, "replay")
	err = p.replay(replay, s, ck, hm)
	e.tracer.end(replay)
	if err != nil {
		return err
	}
	merged := p.timeSpan(root, "replica.merge", func() { out, err = e.tier.Merge(ck, hm) })
	p.c.account(e.sp, s, out, err)
	if err != nil {
		return nil // counted as a failed operation
	}
	p.admitInstallMs = append(p.admitInstallMs, ms(merged-warm))
	p.directN++
	p.log.addReconnect(s, out.BadIDs)
	return nil
}

// replay runs each layer once, single-threaded, on this session's inputs.
func (p *probe) replay(parent int64, s session, ck replica.Checkout, hm *history.Augmented) error {
	// Hb: the part of the window log that lives on the shards Hm touches.
	involved := make(map[int]bool)
	for _, eff := range hm.Effects {
		for it := range eff.ReadSet {
			involved[p.e.tier.shardOf(it)] = true
		}
	}
	var base []*tx.Transaction
	for _, t := range p.log.snapshot() {
		for it := range t.StaticReadSet() {
			if involved[p.e.tier.shardOf(it)] {
				base = append(base, t)
				break
			}
		}
	}
	hb, err := history.Run(history.New(base...), ck.Origin)
	if err != nil {
		return fmt.Errorf("probe: rebuild Hb: %w", err)
	}
	p.baseEntries += hb.H.Len()

	var g *graph.Graph
	p.timeSpan(parent, "graph.build", func() {
		g = graph.Build(graph.DeltaAccessesOf(hm), graph.DeltaAccessesOf(hb))
	})
	p.edges += len(g.Edges())
	bad := map[int]bool{}
	p.timeSpan(parent, "graph.backout", func() {
		if !g.Acyclic(nil) {
			var b []int
			if b, err = (graph.TwoCycle{}).ComputeB(g); err == nil {
				for _, v := range b {
					bad[v] = true
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe: back-out: %w", err)
	}
	var res *rewrite.Result
	p.timeSpan(parent, "rewrite", func() { res, err = rewrite.Algorithm2(hm, bad, rewrite.StaticDetector{}) })
	if err != nil {
		return fmt.Errorf("probe: rewrite: %w", err)
	}
	p.timeSpan(parent, "prune", func() {
		if _, _, err = prune.ByCompensation(res, hm.Final()); err != nil {
			_, _, err = prune.ByUndo(res, hm.Final())
		}
	})
	if err != nil {
		return fmt.Errorf("probe: prune: %w", err)
	}
	p.timeSpan(parent, "merge.total", func() { _, err = merge.Merge(hm, hb, merge.Options{}) })
	if err != nil {
		return fmt.Errorf("probe: merge.Merge: %w", err)
	}

	// Codecs: the journal a reconnect ships, and the code it carries.
	var buf bytes.Buffer
	w := wal.NewWriter(&buf)
	if err := w.Checkout(ck.WindowID, ck.Pos, ck.Origin); err != nil {
		return err
	}
	head := buf.Len()
	p.timeSpan(parent, "wal.encode", func() {
		for i := 0; i < hm.H.Len() && err == nil; i++ {
			err = w.LogTxn(hm.H.Txn(i), hm.Effects[i])
		}
	})
	if err != nil {
		return fmt.Errorf("probe: wal encode: %w", err)
	}
	p.walBytes += buf.Len() - head
	p.walTxn += hm.H.Len()
	p.timeSpan(parent, "tx.marshal", func() {
		for i := 0; i < hm.H.Len() && err == nil; i++ {
			_, err = tx.MarshalTransaction(hm.H.Txn(i))
		}
	})
	if err != nil {
		return fmt.Errorf("probe: marshal: %w", err)
	}

	// Store: one commit's records written and forced on a scratch engine,
	// and a base state materialized from version chains as long as Hb.
	if p.disk == nil {
		if p.disk, err = openScratchDisk(filepath.Join(p.e.dir, fmt.Sprintf("scratch%d", p.c.idx))); err != nil {
			return err
		}
	}
	commit := buf.Bytes()[head : head+(buf.Len()-head)/hm.H.Len()]
	p.timeSpan(parent, "store.write_sync", func() {
		if _, err = p.disk.Write(commit); err == nil {
			err = p.disk.Sync()
		}
	})
	if err != nil {
		return fmt.Errorf("probe: scratch store: %w", err)
	}
	mem := store.NewMemory()
	mem.Set(1, 0, ck.Origin)
	for i, eff := range hb.Effects {
		mem.Set(1, i+1, eff.Writes)
	}
	p.timeSpan(parent, "store.snapshot_state", func() {
		snap := mem.SnapshotAt(1, hb.H.Len())
		_ = snap.State()
		snap.Release()
	})

	// Locks: what ExecBase takes and releases for this session's base
	// transactions, uncontended.
	lm := lockmgr.New()
	p.timeSpan(parent, "lockmgr", func() {
		for _, t := range s.base {
			writes := t.StaticWriteSet()
			for _, it := range t.StaticReadSet().Union(writes).Items() {
				mode := lockmgr.Shared
				if writes.Has(it) {
					mode = lockmgr.Exclusive
				}
				if err = lm.Acquire(t.ID, it, mode); err != nil {
					return
				}
				p.locks++
			}
			lm.ReleaseAll(t.ID)
		}
	})
	p.lockTxns += len(s.base)
	return err
}

// openScratchDisk opens a fresh store.Disk with an empty first generation,
// ready for Write+Sync.
func openScratchDisk(dir string) (*store.Disk, error) {
	d, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	d.BeginRotate()
	if _, err := d.CompleteRotate(func(io.Writer) error { return nil }); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// framedSession reconnects the client's frame mobile through ServeFrame.
func (p *probe) framedSession(root int64, s session) error {
	ctx := context.Background()
	p.framed.parent = root
	m := p.frame
	if m.c == nil || m.window != p.e.window {
		fresh, err := replica.DialTransport(ctx, m.id, p.framed)
		if err != nil {
			return fmt.Errorf("probe: dial %s: %w", m.id, err)
		}
		m.c, m.window = fresh, p.e.window
	}
	for _, t := range s.tent {
		if err := m.c.Run(t); err != nil {
			return fmt.Errorf("probe: run %s: %w", t.ID, err)
		}
	}
	out, err := m.c.ConnectMergeContext(ctx)
	p.c.account(p.e.sp, s, out, err)
	if err == nil {
		p.frameN++
		p.log.addReconnect(s, out.BadIDs)
	}
	return nil
}

// frameTransport hands each frame straight to BaseServer.ServeFrame — the
// wire protocol without the wire.
type frameTransport struct {
	p      *probe
	parent int64 // the span the next frames belong to
}

// envelope mirrors the one field of the request envelope the probe decodes.
type envelope struct {
	Journal []byte `json:"journal"`
}

func (t *frameTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	tr, client := t.p.e.tracer, t.p.c.idx
	kind := frameKind(payload)
	var (
		resp []byte
		lost bool
	)
	served := t.p.timeSpan(t.parent, "replica.serveframe:"+kind, func() {
		resp, _, lost = t.p.e.srv.ServeFrame(payload)
	})
	if lost {
		return nil, replica.ErrResponseLost
	}
	switch kind {
	case "checkout":
		// The same read-only frame over the socket: the difference is the
		// price of framing, the loopback and the server's connection
		// goroutine.
		t0 := time.Now()
		if _, err := t.p.c.tr.Call(ctx, payload); err != nil {
			return nil, err
		}
		t.p.socketMs = append(t.p.socketMs, ms(time.Since(t0)-served))
	case "merge":
		// The envelope handling ServeFrame does around tier.Merge, on the
		// same frame: JSON envelope, journal scan, journal replay.
		var err error
		outer := tr.begin(client, t.parent, "replica.envelope_codec")
		var env envelope
		if err = json.Unmarshal(payload, &env); err == nil {
			inner := tr.begin(client, outer, "wal.decode_replay")
			var recs []wal.Record
			if recs, err = wal.ReadAll(bytes.NewReader(env.Journal)); err == nil {
				_, err = wal.Replay(recs)
			}
			tr.end(inner)
		}
		tr.end(outer)
		if err != nil {
			return nil, fmt.Errorf("probe: decode captured frame: %w", err)
		}
	}
	return resp, nil
}

func (t *frameTransport) Close() error { return nil }

// close releases the probe's scratch engine.
func (p *probe) close() {
	if p.disk != nil {
		p.disk.Close()
	}
}
