package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tiermerge/internal/codec"
	"tiermerge/internal/fault"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// Message-passing realization of the mobile/base split. The BaseCluster's
// method API models the protocol's logic; BaseServer/Client realize it as
// actual request/response messages, with every payload serialized through
// the wire codec — the mobile ships its journal (read sets, write images
// and, for re-execution, transaction code), exactly the artifacts Section
// 7.1's communication analysis prices. The server counts real payload
// bytes so the modeled byte weights can be sanity-checked against measured
// encodings.
//
// The request/response envelope handling lives behind the Transport seam
// (transport.go): ServeFrame processes one serialized request regardless of
// how it arrived, the in-process channel transport carries frames between
// goroutines, and internal/wire carries the same frames over real TCP so
// mobile nodes deploy as separate processes.

// ErrServerClosed is returned for requests after Close.
var ErrServerClosed = errors.New("replica: base server closed")

// ErrResponseLost reports a response lost in transit — fault injection on
// the channel transport, a severed connection on TCP. Reconnect requests
// carry a sequence number and the server caches the last applied response
// per mobile, so clients retry calls that fail with ErrResponseLost
// (errors.Is) and retries stay exactly-once.
var ErrResponseLost = errors.New("replica: response lost in transit")

// ErrStaleSeq reports a reconnect frame whose sequence number is older
// than one the server already applied for the same mobile — an
// out-of-order duplicate of a previous reconnect, delayed in transit. The
// exact-match dedup alone would fall through and re-merge the old journal,
// applying its transactions twice; the server instead rejects the frame
// in-band and clients surface it via errors.Is.
var ErrStaleSeq = errors.New("replica: stale reconnect seq")

// ErrOversized reports a response that exceeds the transport's frame
// limit — typically a master checkout larger than MaxFrame. The violation
// is deterministic: redialing the same request fails the same way, so
// clients fail fast instead of retrying (it is never wrapped in
// ErrResponseLost). Only a first checkout, a Strategy 1 checkout or one
// into a new window still ships the whole origin: a reconnect carries Hm's
// footprint of it, and a same-window re-checkout none.
var ErrOversized = errors.New("replica: response exceeds transport frame limit")

// DropEveryNth makes the server lose every nth mobile-facing response —
// transport fault injection for tests; 0 disables. The plan is a
// fault.Schedule, the same counter-driven predicate the crash harnesses
// use. On the channel transport the response is silently dropped; the TCP
// server severs the connection instead (the client redials and retries).
func (s *BaseServer) DropEveryNth(n int64) { s.drops.SetEveryNth(n) }

// reqKind tags server requests.
type reqKind string

const (
	reqCheckout  reqKind = "checkout"
	reqMerge     reqKind = "merge"
	reqReprocess reqKind = "reprocess"
	reqExecBase  reqKind = "execbase"
	reqMaster    reqKind = "master"
)

// wireReq is the serialized request envelope.
type wireReq struct {
	Kind     reqKind `json:"kind"`
	MobileID string  `json:"mobile,omitempty"`
	// Seq deduplicates reconnect attempts: a merge or reprocess is applied
	// at most once per (mobile, seq); retries of an already-applied request
	// get the cached response. Checkouts and base submissions are
	// idempotent enough not to need it.
	Seq int64 `json:"seq,omitempty"`
	// Epoch scopes Seq to one client session: a fresh client process
	// reusing a mobile ID starts a new epoch (and its seqs over from 1)
	// without tripping the stale-seq guard, while a delayed duplicate —
	// necessarily a byte-identical frame from the SAME session — still
	// carries the epoch it was stamped with and is caught.
	Epoch string `json:"epoch,omitempty"`
	// Window, on a checkout, is the window whose origin the client still
	// holds (0: none). A Strategy 2 base still in that window answers Same
	// instead of shipping the origin again.
	Window int `json:"window,omitempty"`
	// Journal is a reconnect's period as binary wal records: the
	// checkout, its origin restricted to Hm's footprint, then Hm.
	Journal []byte `json:"journal,omitempty"`
	// Txn is a base submission's binary transaction code.
	Txn []byte `json:"txn,omitempty"`
}

// wireResp is the serialized response envelope.
type wireResp struct {
	Err string `json:"err,omitempty"`
	// Stale marks an Err caused by a stale reconnect seq (ErrStaleSeq), so
	// clients can rediscover the typed error across the wire.
	Stale bool `json:"stale,omitempty"`
	// TooLarge marks an Err caused by a response exceeding the transport
	// frame limit (ErrOversized) — non-retryable, clients fail fast.
	TooLarge bool `json:"too_large,omitempty"`
	Window   int  `json:"window,omitempty"`
	// Same answers a checkout whose Window the base still serves under
	// Strategy 2: the client restarts from the origin it holds, and the
	// response carries none.
	Same bool `json:"same,omitempty"`
	Pos  int  `json:"pos,omitempty"`
	// Origin (a checkout's) and Master are binary states
	// (codec.MarshalState).
	Origin   []byte   `json:"origin,omitempty"`
	Merged   bool     `json:"merged,omitempty"`
	Fallback string   `json:"fallback,omitempty"`
	Saved    int      `json:"saved,omitempty"`
	Reproc   int      `json:"reproc,omitempty"`
	Failed   int      `json:"failed,omitempty"`
	BadIDs   []string `json:"bad,omitempty"`
	Master   []byte   `json:"master,omitempty"`
}

type rpc struct {
	payload []byte
	reply   chan []byte
}

// BaseTier is the reconcile surface a BaseServer serves; BaseCluster and
// ShardedBase both implement it, so one server fronts either tier shape.
type BaseTier interface {
	CheckoutReplica(mobileID string) Checkout
	ExecBase(t *tx.Transaction) error
	Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error)
	Reprocess(hm *history.Augmented) *ConnectOutcome
	Master() model.State
}

// BaseServer serves a base tier as request/response frames. A pool of
// worker goroutines drains the in-process channel transport, so concurrent
// reconnects decode, replay and route their journals in parallel instead of
// queueing end-to-end behind one goroutine (the always-connected base
// site's request processors); merges on one cluster then serialize on its
// mutex, merges on disjoint shards run side by side. A TCP front end
// (internal/wire) feeds the same ServeFrame entry point from
// per-connection goroutines.
type BaseServer struct {
	// tier is the served reconcile surface; b and sharded retain the
	// concrete tier (exactly one is non-nil) for debug endpoints.
	tier    BaseTier
	b       *BaseCluster
	sharded *ShardedBase
	req     chan rpc
	stop    chan struct{}
	workers sync.WaitGroup

	bytesIn, bytesOut atomic.Int64
	requests          atomic.Int64

	// reg, when set (WithObserver), is the metrics registry wire transports
	// bill their tiermerge_wire_* series into.
	reg *obs.Registry

	// applied caches, per mobile, the last reconnect seq handled and its
	// response — the exactly-once guard for retried merges. Guarded by
	// appliedMu; workers handle requests concurrently. The cache holds at
	// most appliedCap mobiles (WithDedupCapacity), evicting the
	// least-recently-used entry past that; dedupEntries gauges its size.
	appliedMu    sync.Mutex
	applied      map[string]appliedReq
	appliedCap   int
	appliedTick  int64
	dedupEntries *obs.Gauge

	// drops, when armed (DropEveryNth), silently discards every nth
	// mobile-facing response (fault injection for transport tests).
	drops fault.Schedule
}

// appliedReq caches one handled reconnect. tick is the entry's last-use
// stamp for LRU eviction.
type appliedReq struct {
	epoch string
	seq   int64
	resp  []byte
	tick  int64
}

// defaultDedupCapacity bounds the reconnect dedup cache when
// WithDedupCapacity is not given: enough for any realistic mobile fleet in
// one deployment, small enough that a server fronting a churning population
// (each mobile ID seen once) cannot grow without bound.
const defaultDedupCapacity = 1024

// ServeOption configures a Serve call.
type ServeOption func(*serveOptions)

type serveOptions struct {
	workers  int
	dropNth  int64
	dedupCap int
	observer obs.Observer
}

// WithWorkers sizes the request-worker pool draining the in-process
// transport (n < 1 is treated as 1; default 1). With several workers,
// simultaneous reconnects overlap everything outside the cluster mutexes —
// envelope decoding, journal replay, the journal fsync before the ack — and
// merges on disjoint shards overlap entirely.
func WithWorkers(n int) ServeOption {
	return func(o *serveOptions) { o.workers = n }
}

// WithDropEveryNth arms transport fault injection from the start: every
// nth mobile-facing response is lost (see DropEveryNth).
func WithDropEveryNth(n int64) ServeOption {
	return func(o *serveOptions) { o.dropNth = n }
}

// WithDedupCapacity bounds the per-mobile reconnect dedup cache to n
// entries, evicting the least-recently-used mobile beyond that (n < 1
// keeps the default). An evicted mobile loses retry protection only for
// its LAST reconnect — a retry of it merges again — so size the cache to
// the active fleet, not the lifetime population. The current size is
// exported as the tiermerge_wire_dedup_entries gauge (WithObserver).
func WithDedupCapacity(n int) ServeOption {
	return func(o *serveOptions) { o.dedupCap = n }
}

// WithObserver attaches an observer to the server's transport layer: when
// the observer exposes a metrics registry (obs.Metrics, or an obs.Multi
// containing one), wire transports serving this server bill their
// tiermerge_wire_* series into it.
func WithObserver(o obs.Observer) ServeOption {
	return func(so *serveOptions) { so.observer = o }
}

// Serve starts a server over a base tier — a *BaseCluster or a
// *ShardedBase — configured by functional options (workers, observer,
// fault schedule). A one-shard ShardedBase is served as its underlying
// plain cluster. Callers must Close the server when done.
func Serve(tier BaseTier, opts ...ServeOption) *BaseServer {
	var o serveOptions
	for _, f := range opts {
		f(&o)
	}
	s := &BaseServer{tier: tier}
	switch t := tier.(type) {
	case *BaseCluster:
		s.b = t
	case *ShardedBase:
		if t.Shards() == 1 {
			s.b = t.Shard(0)
			s.tier = s.b
		} else {
			s.sharded = t
		}
	}
	if o.dropNth > 0 {
		s.drops.SetEveryNth(o.dropNth)
	}
	s.appliedCap = o.dedupCap
	if s.appliedCap < 1 {
		s.appliedCap = defaultDedupCapacity
	}
	s.reg = obs.RegistryOf(o.observer)
	if s.reg != nil {
		s.dedupEntries = s.reg.Gauge("tiermerge_wire_dedup_entries")
	}
	s.start(o.workers)
	return s
}

func (s *BaseServer) start(n int) {
	if n < 1 {
		n = 1
	}
	s.req = make(chan rpc)
	s.stop = make(chan struct{})
	s.applied = make(map[string]appliedReq)
	s.workers.Add(n)
	for i := 0; i < n; i++ {
		go s.loop()
	}
}

// Close stops the worker goroutines and waits for them to exit.
func (s *BaseServer) Close() {
	close(s.stop)
	s.workers.Wait()
}

// Stats returns the requests served and real payload bytes moved each way,
// summed over every transport feeding this server.
func (s *BaseServer) Stats() (requests, bytesIn, bytesOut int64) {
	return s.requests.Load(), s.bytesIn.Load(), s.bytesOut.Load()
}

// WireRegistry returns the metrics registry wire transports bill into
// (WithObserver), or nil.
func (s *BaseServer) WireRegistry() *obs.Registry { return s.reg }

func (s *BaseServer) loop() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case r := <-s.req:
			resp, _, lost := s.ServeFrame(r.payload)
			if lost {
				// Fault injection: the response is lost on the wireless
				// link; the client times out and retries.
				r.reply <- nil
				continue
			}
			r.reply <- resp
		}
	}
}

// ServeFrame processes one serialized request envelope and returns the
// serialized response. It is the transport-agnostic entry point: the
// in-process channel workers and the TCP connection handlers both feed it,
// and it bills the server's request/byte counters once per frame. kind
// names the request endpoint for per-endpoint transport metrics. lost
// reports that fault injection consumed the response — the transport must
// realize the loss (the channel transport replies nil; the TCP server
// severs the connection). Safe for concurrent use.
func (s *BaseServer) ServeFrame(payload []byte) (resp []byte, kind string, lost bool) {
	s.requests.Add(1)
	s.bytesIn.Add(int64(len(payload)))
	resp, k, mobileFacing := s.handle(payload)
	s.bytesOut.Add(int64(len(resp)))
	if mobileFacing && s.drops.Hit() {
		return nil, string(k), true
	}
	return resp, string(k), false
}

// handle processes one request payload and reports whether the response
// traverses the mobile-facing link (fault injection only applies there).
func (s *BaseServer) handle(payload []byte) ([]byte, reqKind, bool) {
	var req wireReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return mustResp(wireResp{Err: fmt.Sprintf("bad request: %v", err)}), "", false
	}
	switch req.Kind {
	case reqCheckout:
		if req.Window != 0 && s.sameWindow(req.Window) {
			return mustResp(wireResp{Window: req.Window, Same: true}), req.Kind, true
		}
		ck := s.tier.CheckoutReplica(req.MobileID)
		return mustResp(wireResp{Window: ck.WindowID, Pos: ck.Pos, Origin: codec.MarshalState(ck.Origin)}), req.Kind, true
	case reqMaster:
		return mustResp(wireResp{Master: codec.MarshalState(s.tier.Master())}), req.Kind, false
	case reqExecBase:
		t, err := tx.UnmarshalTransaction(req.Txn)
		if err != nil {
			return mustResp(wireResp{Err: err.Error()}), req.Kind, false
		}
		if err := s.tier.ExecBase(t); err != nil {
			return mustResp(wireResp{Err: err.Error()}), req.Kind, false
		}
		return mustResp(wireResp{}), req.Kind, false
	case reqMerge, reqReprocess:
		// Exactly-once: a retry of an applied reconnect replays the cached
		// response instead of merging the same journal twice, and a frame
		// OLDER than the last applied seq — an out-of-order duplicate of an
		// earlier reconnect, delayed in transit — is rejected outright
		// rather than re-merged. Both judgments are scoped to the frame's
		// session epoch: a new client instance reusing the mobile ID opens
		// a new epoch and falls through to a fresh merge.
		if prev, ok := s.lookupApplied(req.MobileID); ok && prev.epoch == req.Epoch {
			switch {
			case req.Seq == prev.seq:
				return prev.resp, req.Kind, true
			case req.Seq < prev.seq:
				return mustResp(wireResp{
					Err: fmt.Sprintf("reconnect seq %d from %s already superseded by %d",
						req.Seq, req.MobileID, prev.seq),
					Stale: true,
				}), req.Kind, true
			}
		}
		rep, err := replayPayload(req.Journal)
		if err != nil {
			return mustResp(wireResp{Err: err.Error()}), req.Kind, true
		}
		var out *ConnectOutcome
		if req.Kind == reqReprocess {
			out = s.tier.Reprocess(rep.Augmented)
		} else {
			ck := Checkout{
				MobileID: req.MobileID,
				WindowID: rep.WindowID,
				Pos:      rep.Pos,
				Origin:   footprintOrigin(rep.Origin, rep.Augmented),
			}
			out, err = s.tier.Merge(ck, rep.Augmented)
			if err != nil {
				return mustResp(wireResp{Err: err.Error()}), req.Kind, true
			}
		}
		resp := wireResp{
			Merged:   out.Merged,
			Fallback: string(out.Fallback),
			Saved:    out.Saved,
			Reproc:   out.Reprocessed,
			Failed:   out.Failed,
		}
		if out.Report != nil {
			resp.BadIDs = out.Report.BadIDs
		}
		encoded := mustResp(resp)
		s.storeApplied(req.MobileID, req.Epoch, req.Seq, encoded)
		return encoded, req.Kind, true
	default:
		return mustResp(wireResp{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}), req.Kind, false
	}
}

// sameWindow reports whether a checkout now would hand out the origin of
// window w: only under Strategy 2, whose window origin is replaced by
// AdvanceWindow alone and never mutated.
func (s *BaseServer) sameWindow(w int) bool {
	switch {
	case s.b != nil:
		return s.b.cfg.Origin == Strategy2 && s.b.WindowID() == w
	case s.sharded != nil:
		return s.sharded.cfg.Origin == Strategy2 && s.sharded.WindowID() == w
	}
	return false
}

// replayPayload decodes and verifies a reconnect's journal. A payload is
// not a crash image: the client wrote it whole, so a torn final record or a
// transaction without its commit means it was damaged in transit, and
// merging the shorter history would silently drop the missing work.
func replayPayload(journal []byte) (*wal.Replayed, error) {
	res, err := wal.Scan(bytes.NewReader(journal), wal.Strict)
	if err != nil {
		return nil, err
	}
	if res.Torn {
		return nil, fmt.Errorf("replica: reconnect journal torn at record %d: %w", res.TornRecord, wal.ErrCorrupt)
	}
	rep, err := wal.Replay(res.Records)
	if err != nil {
		return nil, err
	}
	if rep.Dropped > 0 {
		return nil, fmt.Errorf("replica: reconnect journal ends in an uncommitted transaction: %w", wal.ErrCorrupt)
	}
	return rep, nil
}

// lookupApplied returns the cached reconnect state for a mobile,
// refreshing its LRU stamp on a hit.
func (s *BaseServer) lookupApplied(mobileID string) (appliedReq, bool) {
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	prev, ok := s.applied[mobileID]
	if ok {
		s.appliedTick++
		prev.tick = s.appliedTick
		s.applied[mobileID] = prev
	}
	return prev, ok
}

// storeApplied caches the response for (mobileID, epoch, seq), keeping
// only the newest seq per mobile within an epoch (concurrent workers may
// finish out of order), replacing the entry outright when a new epoch
// takes over the ID, and evicting the least-recently-used mobile once the
// cache exceeds its capacity.
func (s *BaseServer) storeApplied(mobileID, epoch string, seq int64, resp []byte) {
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	if prev, ok := s.applied[mobileID]; ok && prev.epoch == epoch && prev.seq > seq {
		return
	}
	s.appliedTick++
	s.applied[mobileID] = appliedReq{epoch: epoch, seq: seq, resp: resp, tick: s.appliedTick}
	limit := s.appliedCap
	if limit < 1 {
		limit = defaultDedupCapacity
	}
	for len(s.applied) > limit {
		victim, oldest := "", int64(0)
		for id, a := range s.applied {
			if victim == "" || a.tick < oldest {
				victim, oldest = id, a.tick
			}
		}
		delete(s.applied, victim)
	}
	if s.dedupEntries != nil {
		s.dedupEntries.Set(int64(len(s.applied)))
	}
}

// DedupEntries reports the current size of the reconnect dedup cache (the
// value behind the tiermerge_wire_dedup_entries gauge).
func (s *BaseServer) DedupEntries() int {
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	return len(s.applied)
}

// ErrorFrame encodes a transport-level failure as a response envelope, so
// transports that detect protocol violations (oversized frames, version
// mismatches) can report them in-band before severing the connection.
func ErrorFrame(msg string) []byte { return mustResp(wireResp{Err: msg}) }

// OversizedFrame encodes the typed in-band error for a response that
// exceeded the transport frame limit. Transports substitute it (it is a
// few dozen bytes) for the unsendable response, and clients surface
// ErrOversized without retrying — the same request can never succeed.
func OversizedFrame(msg string) []byte { return mustResp(wireResp{Err: msg, TooLarge: true}) }

func mustResp(r wireResp) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("replica: encode response: %v", err))
	}
	return b
}

// ExecBaseRemote submits a base transaction over the wire (for tests and
// tools that drive everything through the server).
func (s *BaseServer) ExecBaseRemote(t *tx.Transaction) error {
	code, err := tx.MarshalTransaction(t)
	if err != nil {
		return err
	}
	_, err = call(context.Background(), s.Transport(), wireReq{Kind: reqExecBase, Txn: code})
	return err
}
