package replica

import (
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
// how it arrived, the in-process transport calls it on the client's
// goroutine, and internal/wire carries the same frames over real TCP so
// mobile nodes deploy as separate processes.

// ErrServerClosed is returned for requests after Close.
var ErrServerClosed = errors.New("replica: base server closed")

// ErrResponseLost reports a response lost in transit — fault injection on
// the in-process transport, a severed connection on TCP. Reconnect requests
// carry a sequence number and the server keeps the last applied outcome
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
// ErrResponseLost). Only a checkout ships the whole origin — a first dial,
// a Strategy 1 checkout or one into a new window: a reconnect carries Hm's
// footprint of it, and a same-window merge answer none.
var ErrOversized = errors.New("replica: response exceeds transport frame limit")

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
	// get its recorded outcome. Checkouts and base submissions are
	// idempotent enough not to need it.
	Seq int64 `json:"seq,omitempty"`
	// Epoch scopes Seq to one client session: a fresh client process
	// reusing a mobile ID starts a new epoch (and its seqs over from 1)
	// without tripping the stale-seq guard, while a delayed duplicate —
	// necessarily a byte-identical frame from the SAME session — still
	// carries the epoch it was stamped with and is caught.
	Epoch string `json:"epoch,omitempty"`
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
	// Same answers a reconnect merged into a Strategy 2 Window the base
	// still serves: the client restarts from the origin it holds, and no
	// checkout follows.
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

// BaseTier is the reconcile surface a BaseServer serves; BaseCluster and
// ShardedBase both implement it, so one server fronts either tier shape.
type BaseTier interface {
	CheckoutReplica(mobileID string) Checkout
	ExecBase(t *tx.Transaction) error
	Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error)
	Reprocess(hm *history.Augmented) *ConnectOutcome
	Master() model.State
}

// BaseServer serves a base tier as request/response frames. It owns no
// goroutine: every transport calls ServeFrame on the caller's goroutine —
// the in-process transport on the client's, the TCP front end
// (internal/wire) on each connection's — so concurrent reconnects decode,
// replay and route their journals in parallel; merges on one cluster then
// serialize on its mutex, merges on disjoint shards run side by side.
type BaseServer struct {
	// tier is the served reconcile surface; b and sharded retain the
	// concrete tier (exactly one is non-nil) for debug endpoints.
	tier    BaseTier
	b       *BaseCluster
	sharded *ShardedBase
	// closed turns the in-process transport's calls away (Close).
	closed atomic.Bool

	bytesIn, bytesOut atomic.Int64
	requests          atomic.Int64

	// reg, when set (WithObserver), is the metrics registry wire transports
	// bill their tiermerge_wire_* series into.
	reg *obs.Registry

	// applied holds, per mobile, the last reconnect seq handled and its
	// outcome — the exactly-once guard for retried merges, one entry per
	// mobile and never evicted — and inflight holds the reconnects being
	// merged, so a concurrent duplicate waits for the first delivery.
	// Guarded by appliedMu; frames are served concurrently.
	appliedMu sync.Mutex
	applied   map[string]appliedReq
	inflight  map[flightKey]*flight

	// frame is the latest Strategy 2 window's whole-origin checkout
	// response (see windowFrame).
	frame atomic.Pointer[checkoutFrame]

	// drops, when armed (WithDropEveryNth), silently discards every nth
	// mobile-facing response (fault injection for transport tests).
	drops fault.Schedule
}

// outcome is a handled reconnect's answer before it is encoded: the
// response, and the window the reconnect merged in (0: it did not merge).
type outcome struct {
	resp   wireResp
	window int
}

// appliedReq records one mobile's last handled reconnect.
type appliedReq struct {
	epoch string
	seq   int64
	outcome
}

// flightKey names one reconnect delivery: a mobile's session epoch and seq.
type flightKey struct {
	mobile, epoch string
	seq           int64
}

// flight is a reconnect being merged; done closes once its outcome is set.
type flight struct {
	done chan struct{}
	outcome
}

// checkoutFrame is one window's encoded whole-origin checkout response.
type checkoutFrame struct {
	window int
	resp   []byte
}

// ServeOption configures a Serve call.
type ServeOption func(*serveOptions)

type serveOptions struct {
	dropNth  int64
	observer obs.Observer
}

// WithWorkers does nothing: a server has no worker pool, and every frame
// is served on its caller's goroutine.
//
// Deprecated: drop the option.
func WithWorkers(int) ServeOption { return func(*serveOptions) {} }

// WithDropEveryNth arms transport fault injection: every nth
// mobile-facing response is lost (0 disables) — for tests. The plan is a
// fault.Schedule, the same counter-driven predicate the crash harnesses
// use. The in-process transport reports the loss as ErrResponseLost; the
// TCP server severs the connection instead (the client redials and
// retries).
func WithDropEveryNth(n int64) ServeOption {
	return func(o *serveOptions) { o.dropNth = n }
}

// WithObserver attaches an observer to the server's transport layer: when
// the observer exposes a metrics registry (obs.Metrics, or an obs.Multi
// containing one), wire transports serving this server bill their
// tiermerge_wire_* series into it.
func WithObserver(o obs.Observer) ServeOption {
	return func(so *serveOptions) { so.observer = o }
}

// Serve returns a server over a base tier — a *BaseCluster or a
// *ShardedBase — configured by functional options (observer, fault
// schedule). It starts no goroutine. A one-shard ShardedBase is served as
// its underlying plain cluster. Close turns later in-process calls away.
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
	s.drops.SetEveryNth(o.dropNth)
	s.reg = obs.RegistryOf(o.observer)
	s.applied = make(map[string]appliedReq)
	s.inflight = make(map[flightKey]*flight)
	return s
}

// Close makes the in-process transport refuse further calls with
// ErrServerClosed. Calls already in ServeFrame finish; a TCP front end
// stops with its own Close.
func (s *BaseServer) Close() { s.closed.Store(true) }

// Stats returns the requests served and real payload bytes moved each way,
// summed over every transport feeding this server.
func (s *BaseServer) Stats() (requests, bytesIn, bytesOut int64) {
	return s.requests.Load(), s.bytesIn.Load(), s.bytesOut.Load()
}

// WireRegistry returns the metrics registry wire transports bill into
// (WithObserver), or nil.
func (s *BaseServer) WireRegistry() *obs.Registry { return s.reg }

// ServeFrame processes one serialized request envelope and returns the
// serialized response. It is the transport-agnostic entry point: the
// in-process transport and the TCP connection handlers both call it,
// and it bills the server's request/byte counters once per frame. kind
// names the request endpoint for per-endpoint transport metrics. lost
// reports that fault injection consumed the response — the transport must
// realize the loss (the in-process transport returns ErrResponseLost; the
// TCP server severs the connection). Safe for concurrent use.
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
		if resp, ok := s.windowFrame(req.MobileID); ok {
			return resp, req.Kind, true
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
		return s.reconnectOnce(req), req.Kind, true
	default:
		return mustResp(wireResp{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}), req.Kind, false
	}
}

// reconnectOnce applies a reconnect at most once per (mobile, epoch, seq).
// A retry of an applied reconnect is answered from its recorded outcome
// instead of merging the same journal twice, a duplicate that arrives
// while the first delivery is still merging waits for it and shares its
// outcome, and a frame OLDER than the last applied seq — an out-of-order
// duplicate of an earlier reconnect, delayed in transit — is rejected
// outright rather than re-merged. Every judgment is scoped to the frame's
// session epoch: a new client instance reusing the mobile ID opens a new
// epoch and falls through to a fresh merge.
func (s *BaseServer) reconnectOnce(req wireReq) []byte {
	key := flightKey{req.MobileID, req.Epoch, req.Seq}
	s.appliedMu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.appliedMu.Unlock()
		<-f.done
		return s.answer(f.outcome)
	}
	if prev, ok := s.applied[req.MobileID]; ok && prev.epoch == req.Epoch {
		switch {
		case req.Seq == prev.seq:
			s.appliedMu.Unlock()
			return s.answer(prev.outcome)
		case req.Seq < prev.seq:
			s.appliedMu.Unlock()
			return mustResp(wireResp{
				Err: fmt.Sprintf("reconnect seq %d from %s already superseded by %d",
					req.Seq, req.MobileID, prev.seq),
				Stale: true,
			})
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.appliedMu.Unlock()
	defer func() {
		s.appliedMu.Lock()
		delete(s.inflight, key)
		s.appliedMu.Unlock()
		close(f.done)
	}()
	f.outcome = s.reconnect(req)
	return s.answer(f.outcome)
}

// reconnect merges or reprocesses one reconnect's journal and records a
// successful outcome in applied.
func (s *BaseServer) reconnect(req wireReq) outcome {
	rep, err := replayPayload(req.Journal)
	if err != nil {
		return outcome{resp: wireResp{Err: err.Error()}}
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
			return outcome{resp: wireResp{Err: err.Error()}}
		}
	}
	o := outcome{resp: wireResp{
		Merged:   out.Merged,
		Fallback: string(out.Fallback),
		Saved:    out.Saved,
		Reproc:   out.Reprocessed,
		Failed:   out.Failed,
	}}
	if out.Report != nil {
		o.resp.BadIDs = out.Report.BadIDs
	}
	if out.Merged {
		o.window = rep.WindowID
	}
	s.storeApplied(req.MobileID, req.Epoch, req.Seq, o)
	return o
}

// answer encodes a reconnect's outcome as it is sent, on the first delivery
// and on every replay alike. A merge into the Strategy 2 window the base
// still serves is answered Same: the client restarts from the origin it
// holds and no checkout follows. A retry that arrives after the window
// moved is answered without Same, and the client checks out.
func (s *BaseServer) answer(o outcome) []byte {
	resp := o.resp
	if o.window != 0 && s.sameWindow(o.window) {
		resp.Window, resp.Same = o.window, true
	}
	return mustResp(resp)
}

// windowFrame answers a whole-origin checkout under Strategy 2, where every
// mobile that checks out in a window gets the same response: it is encoded
// once per window, from the window origin (which is never mutated) and
// outside the cluster mutexes. Each checkout is still billed to the tier as
// CheckoutReplica bills it. ok is false under Strategy 1, whose origin is
// the live master.
func (s *BaseServer) windowFrame(mobileID string) (resp []byte, ok bool) {
	var ck Checkout
	switch {
	case s.b != nil && s.b.cfg.Origin == Strategy2:
		ck = s.b.checkout(mobileID, true)
	case s.sharded != nil && s.sharded.cfg.Origin == Strategy2:
		ck = s.sharded.checkout(mobileID, true)
	default:
		return nil, false
	}
	f := s.frame.Load()
	if f != nil && f.window == ck.WindowID {
		return f.resp, true
	}
	origin := ck.Origin
	if ck.Shards != nil {
		origin = unionOrigin(ck.Shards)
	}
	built := &checkoutFrame{window: ck.WindowID,
		resp: mustResp(wireResp{Window: ck.WindowID, Origin: codec.MarshalState(origin)})}
	// Concurrent misses may both build; the frame of the newer window wins.
	for (f == nil || f.window < built.window) && !s.frame.CompareAndSwap(f, built) {
		f = s.frame.Load()
	}
	return built.resp, true
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

// replayPayload decodes and verifies a reconnect's journal, scanning the
// frame's bytes in place. A payload is not a crash image: the client wrote
// it whole — its checkout and one commit record holding all of Hm — so a
// torn or missing commit record means it was damaged in transit, and
// merging the shorter history would silently drop the missing work.
func replayPayload(journal []byte) (*wal.Replayed, error) {
	res, err := wal.ScanBytes(journal, wal.Strict)
	if err != nil {
		return nil, err
	}
	if res.Torn {
		return nil, fmt.Errorf("replica: reconnect journal torn at record %d: %w", res.TornRecord, wal.ErrCorrupt)
	}
	if len(res.Records) != 2 {
		return nil, fmt.Errorf("replica: reconnect journal holds %d records, want its checkout and one commit record: %w",
			len(res.Records), wal.ErrCorrupt)
	}
	return wal.Replay(res.Records)
}

// storeApplied records the outcome of (mobileID, epoch, seq), keeping only
// the newest seq per mobile within an epoch (concurrent deliveries may
// finish out of order) and replacing the entry outright when a new epoch
// takes over the ID.
func (s *BaseServer) storeApplied(mobileID, epoch string, seq int64, o outcome) {
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	if prev, ok := s.applied[mobileID]; ok && prev.epoch == epoch && prev.seq > seq {
		return
	}
	s.applied[mobileID] = appliedReq{epoch: epoch, seq: seq, outcome: o}
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
