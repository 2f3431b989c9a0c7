package replica

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tiermerge/internal/codec"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Transport carries one serialized request envelope to a base server and
// returns the serialized response — the seam between the protocol's
// request/response envelopes and whatever medium moves them. Two
// realizations ship with the module: the in-process channel transport
// (BaseServer.Transport) and the length-prefixed TCP transport
// (internal/wire), so the same Client reconciles against a goroutine or a
// separate process without knowing which.
//
// Call blocks until the response arrives, ctx is done, or the link fails.
// A response lost after the request may have been applied is reported as
// an error matching ErrResponseLost (errors.Is); callers whose requests
// are idempotent or sequence-numbered retry on it. Implementations must be
// safe for concurrent Call.
type Transport interface {
	Call(ctx context.Context, payload []byte) ([]byte, error)
	// Close releases the transport's resources. Calls in flight fail.
	Close() error
}

// chanTransport is the in-process transport: frames travel over the
// server's rendezvous channel to its worker pool. Closing it is a no-op —
// the server owns the channel's lifecycle.
type chanTransport struct{ s *BaseServer }

// Transport returns the server's in-process transport. Every returned
// value shares the server's worker pool; Close on it is a no-op (Close the
// server instead).
func (s *BaseServer) Transport() Transport { return chanTransport{s} }

// Call sends one frame to the worker pool and awaits the reply, honoring
// ctx for both the enqueue and the wait.
func (t chanTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	r := rpc{payload: payload, reply: make(chan []byte, 1)}
	select {
	case t.s.req <- r:
		// The request channel is unbuffered: a successful send means a
		// worker owns the frame and will reply exactly once (the reply
		// channel is buffered, so an abandoned wait leaks nothing).
	case <-t.s.stop:
		return nil, ErrServerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case raw := <-r.reply:
		if raw == nil {
			return nil, ErrResponseLost
		}
		return raw, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (chanTransport) Close() error { return nil }

// call performs one encode/decode round trip over a transport.
func call(ctx context.Context, tr Transport, req wireReq) (*wireResp, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("replica: encode request: %w", err)
	}
	raw, err := tr.Call(ctx, payload)
	if err != nil {
		return nil, err
	}
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("replica: decode response: %w", err)
	}
	if resp.Err != "" {
		if resp.Stale {
			// Typed so clients can tell "this frame was an out-of-order
			// duplicate" (safe to discard) from a genuine merge failure.
			return nil, fmt.Errorf("replica: server: %s: %w", resp.Err, ErrStaleSeq)
		}
		if resp.TooLarge {
			// Typed so retry loops fail fast: a response over the frame
			// limit stays over it on every retry.
			return nil, fmt.Errorf("replica: server: %s: %w", resp.Err, ErrOversized)
		}
		return nil, fmt.Errorf("replica: server: %s", resp.Err)
	}
	return &resp, nil
}

// Client is a mobile node that talks to the base tier only through a
// Transport: checkout, merge and reprocess all travel as serialized
// payloads. Reconnects carry a sequence number and retry on lost
// responses; the server's dedup cache makes them exactly-once.
type Client struct {
	node *MobileNode
	tr   Transport
	seq  int64
	// epoch identifies this client instance to the server's dedup cache:
	// seqs are scoped to it, so a restarted client reusing a mobile ID
	// starts over at seq 1 without tripping the stale-seq guard, while a
	// delayed duplicate frame from THIS instance (same epoch, lower seq)
	// is still rejected.
	epoch string
	// MaxRetries bounds reconnect retries on lost responses (default 3).
	MaxRetries int
}

// Dial checks out a replica over the server's in-process transport and
// returns the connected client.
func Dial(id string, srv *BaseServer) (*Client, error) {
	return DialContext(context.Background(), id, srv)
}

// DialContext is Dial honoring ctx for the initial checkout.
func DialContext(ctx context.Context, id string, srv *BaseServer) (*Client, error) {
	return DialTransport(ctx, id, srv.Transport())
}

// DialTransport checks out a replica over any Transport — the in-process
// channel transport or a TCP connection pool (internal/wire) — and returns
// the connected client. The client does not own the transport; close it
// separately when done.
func DialTransport(ctx context.Context, id string, tr Transport) (*Client, error) {
	c := &Client{tr: tr, node: &MobileNode{ID: id}, epoch: newEpoch()}
	if err := c.checkout(ctx, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// newEpoch draws a fresh session identifier. Collision across instances
// would only merge two sessions' dedup state, so a short random token is
// plenty; on the (never-observed) failure of the system randomness source
// it degrades to the shared empty epoch — the pre-epoch behavior.
func newEpoch() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// retries returns the lost-response retry budget.
func (c *Client) retries() int {
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

// retryPause backs off briefly (exponential, jittered) before a
// lost-response retry. The jitter matters more than the delay: a fleet of
// lockstep clients facing a periodic fault schedule (DropEveryNth) can
// resonate with it — every retry landing on another dropped slot — and
// random desynchronization breaks the lockstep.
func retryPause(ctx context.Context, attempt int) {
	d := time.Duration(1<<uint(min(attempt, 6))) * time.Millisecond
	d += time.Duration(rand.Int63n(int64(d) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// checkout refreshes the client's replica over the wire, retrying lost
// responses (checkouts are read-only, hence idempotent). held names the
// window whose origin the client still holds (0: none); a base that would
// hand out that origin again answers Same, and the new period starts from
// the held origin.
func (c *Client) checkout(ctx context.Context, held int) error {
	var (
		resp *wireResp
		err  error
	)
	for attempt := 0; ; attempt++ {
		resp, err = call(ctx, c.tr, wireReq{Kind: reqCheckout, MobileID: c.node.ID, Window: held})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrResponseLost) || attempt >= c.retries() {
			return err
		}
		retryPause(ctx, attempt)
	}
	if resp.Same {
		// The token is unchanged: undo the period's writes in place rather
		// than copy the whole held origin.
		c.node.run.Rewind()
		return nil
	}
	// The freshly decoded origin is the node's own: it is adopted, not copied.
	origin, err := codec.UnmarshalState(resp.Origin)
	if err != nil {
		return fmt.Errorf("replica: decode checkout origin: %w", err)
	}
	c.node.resetFrom(Checkout{MobileID: c.node.ID, WindowID: resp.Window, Pos: resp.Pos, Origin: origin})
	return nil
}

// Run executes a tentative transaction locally (no communication).
func (c *Client) Run(t *tx.Transaction) error { return c.node.Run(t) }

// Local returns the client's tentative state.
func (c *Client) Local() model.State { return c.node.Local() }

// Pending returns the number of unreconciled tentative transactions.
func (c *Client) Pending() int { return c.node.Pending() }

// marshalJournal serializes the node's whole period as wal records — the
// payload a reconnect ships. Its checkout carries Hm's footprint of the
// origin, so wal.Replay from it gives the same effects.
func (c *Client) marshalJournal() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.node.journalPeriod(&buf, footprintOrigin(c.node.ck.Origin, c.node.run)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// connect performs a reconcile round trip of the given kind, retrying on
// lost responses (the sequence number makes retries exactly-once), then
// re-checks out — offering the held window after a merge, whose token the
// base has just accepted.
func (c *Client) connect(ctx context.Context, kind reqKind) (*ConnectOutcome, error) {
	journal, err := c.marshalJournal()
	if err != nil {
		return nil, err
	}
	c.seq++
	var resp *wireResp
	for attempt := 0; ; attempt++ {
		resp, err = call(ctx, c.tr, wireReq{
			Kind: kind, MobileID: c.node.ID, Seq: c.seq, Epoch: c.epoch,
			Journal: journal,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrResponseLost) || attempt >= c.retries() {
			return nil, err
		}
		retryPause(ctx, attempt)
	}
	out := &ConnectOutcome{
		Merged:      resp.Merged,
		Fallback:    FallbackReason(resp.Fallback),
		BadIDs:      resp.BadIDs,
		Saved:       resp.Saved,
		Reprocessed: resp.Reproc,
		Failed:      resp.Failed,
	}
	held := 0
	if out.Merged {
		held = c.node.ck.WindowID
	}
	if err := c.checkout(ctx, held); err != nil {
		return nil, err
	}
	return out, nil
}

// ConnectMerge reconciles via the merging protocol over the wire.
func (c *Client) ConnectMerge() (*ConnectOutcome, error) {
	return c.connect(context.Background(), reqMerge)
}

// ConnectMergeContext is ConnectMerge honoring ctx: cancellation or a
// deadline aborts the round trip (the server may still apply a merge whose
// response was cut off; the next retry with the same sequence number
// replays the cached outcome).
func (c *Client) ConnectMergeContext(ctx context.Context) (*ConnectOutcome, error) {
	return c.connect(ctx, reqMerge)
}

// ConnectReprocess reconciles via the reprocessing protocol over the wire.
func (c *Client) ConnectReprocess() (*ConnectOutcome, error) {
	return c.connect(context.Background(), reqReprocess)
}

// ConnectReprocessContext is ConnectReprocess honoring ctx.
func (c *Client) ConnectReprocessContext(ctx context.Context) (*ConnectOutcome, error) {
	return c.connect(ctx, reqReprocess)
}

// MasterRemote fetches the base tier's current master state over the wire
// (convergence checks for multi-process fleets). Reads are idempotent, so
// lost responses are retried like checkouts.
func (c *Client) MasterRemote(ctx context.Context) (model.State, error) {
	var (
		resp *wireResp
		err  error
	)
	for attempt := 0; ; attempt++ {
		resp, err = call(ctx, c.tr, wireReq{Kind: reqMaster})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrResponseLost) || attempt >= c.retries() {
			return nil, err
		}
		retryPause(ctx, attempt)
	}
	master, err := codec.UnmarshalState(resp.Master)
	if err != nil {
		return nil, fmt.Errorf("replica: decode master: %w", err)
	}
	return master, nil
}
