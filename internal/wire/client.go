package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
)

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("wire: client transport closed")

// ClientConfig tunes a client Transport. Zero values select the defaults
// noted on each field.
type ClientConfig struct {
	// MaxFrame caps response payloads (default DefaultMaxFrame) and
	// rejects oversized requests locally before any bytes are sent.
	MaxFrame int
	// DialTimeout bounds each TCP dial (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip when the caller's
	// context carries no earlier deadline (default 30s).
	CallTimeout time.Duration
	// MaxIdle caps pooled idle connections (default 2). Excess connections
	// are closed on release rather than pooled.
	MaxIdle int
	// Registry, when set, receives the client-side wire series
	// (tiermerge_wire_dials_total, tiermerge_wire_redials_total).
	Registry *obs.Registry
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.MaxIdle == 0 {
		c.MaxIdle = 2
	}
	return c
}

// Transport is a pooling TCP client realizing replica.Transport: each Call
// is one framed request/response round trip on a dedicated connection
// drawn from (and returned to) a small idle pool, so concurrent Calls get
// concurrent connections. It reconnects transparently: a pooled connection
// the server has idled out is detected on the request write and redialed
// once; a connection lost after the request was written surfaces as
// replica.ErrResponseLost, which sequence-numbered reconnects retry safely
// (the server's applied table makes them exactly-once).
type Transport struct {
	addr string
	cfg  ClientConfig

	// mu guards idle and closed only — never held across socket I/O
	// (dials, writes and reads all run outside it).
	mu     sync.Mutex
	idle   []*conn
	closed bool

	dials, redials atomic.Int64

	dialsMetric, redialsMetric *obs.Counter
}

// conn is one pooled connection with what it keeps across the calls it
// carries: the reader responses are read through and the buffer requests
// are framed in.
type conn struct {
	net.Conn
	br  *bufio.Reader
	out []byte
}

// Dial returns a client transport for the server at addr. No connection is
// made until the first Call, so Dial itself cannot fail.
func Dial(addr string, cfg ClientConfig) *Transport {
	t := &Transport{addr: addr, cfg: cfg.withDefaults()}
	if reg := t.cfg.Registry; reg != nil {
		t.dialsMetric = reg.Counter("tiermerge_wire_dials_total")
		t.redialsMetric = reg.Counter("tiermerge_wire_redials_total")
	}
	return t
}

// Stats reports connections dialed, and how many of those were transparent
// redials of a stale pooled connection.
func (t *Transport) Stats() (dials, redials int64) {
	return t.dials.Load(), t.redials.Load()
}

// Call sends one framed request and awaits its response, honoring ctx's
// deadline and cancellation. Responses lost after the request may have
// reached the server are reported as replica.ErrResponseLost.
func (t *Transport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	if len(payload) > t.cfg.MaxFrame {
		return nil, fmt.Errorf("%w: request is %d bytes (max %d)",
			ErrFrameTooLarge, len(payload), t.cfg.MaxFrame)
	}
	c, reused, err := t.get(ctx)
	if err != nil {
		return nil, err
	}
	resp, werr, rerr := t.roundTrip(ctx, c, payload)
	if werr == nil && rerr == nil {
		t.put(c)
		return resp, nil
	}
	c.Close()
	if werr != nil && reused {
		// The server idled this pooled connection out between Calls; the
		// request never left, so a fresh dial retries it transparently.
		t.redials.Add(1)
		if t.redialsMetric != nil {
			t.redialsMetric.Inc()
		}
		c2, derr := t.dialConn(ctx)
		if derr != nil {
			return nil, derr
		}
		resp, werr, rerr = t.roundTrip(ctx, c2, payload)
		if werr == nil && rerr == nil {
			t.put(c2)
			return resp, nil
		}
		c2.Close()
	}
	if werr != nil {
		return nil, fmt.Errorf("wire: send: %w", werr)
	}
	// The request was written but the response never arrived — a severed
	// connection (fault injection, server drain) or a read deadline. The
	// server may have applied it: surface the loss and let the caller's
	// retry discipline (sequence numbers / idempotence) decide.
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if errors.Is(rerr, ErrFrameTooLarge) || errors.Is(rerr, ErrBadVersion) {
		// Protocol violations are deterministic — the same request redialed
		// fails the same way. Surfacing them as ErrResponseLost would send
		// the retry loop redialing forever; fail fast instead. (Servers
		// with this fix substitute a small typed error frame before the
		// response ever exceeds the limit; this guards against older
		// peers.)
		return nil, fmt.Errorf("wire: receive: %w", rerr)
	}
	return nil, fmt.Errorf("%w: %v", replica.ErrResponseLost, rerr)
}

// Close closes the transport and its pooled connections; later Calls fail
// with ErrClientClosed. Calls in flight on live connections fail as those
// connections are not tracked here — they belong to their Call until
// released.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// get pops an idle pooled connection, or dials a fresh one outside the
// lock. reused reports a pooled (possibly stale) connection.
func (t *Transport) get(ctx context.Context) (c *conn, reused bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(t.idle); n > 0 {
		c = t.idle[n-1]
		t.idle = t.idle[:n-1]
	}
	t.mu.Unlock()
	if c != nil {
		if stale(c) {
			// The server idled this connection out between Calls; replace
			// it before the request touches the wire.
			c.Close()
			t.redials.Add(1)
			if t.redialsMetric != nil {
				t.redialsMetric.Inc()
			}
		} else {
			return c, true, nil
		}
	}
	c, err = t.dialConn(ctx)
	return c, false, err
}

// stale probes a pooled connection for a pending EOF/RST without blocking:
// the server never sends unsolicited data, so anything readable (or a
// closed stream) means the connection is dead. A request written whole to
// a dead connection can succeed, so the probe is what keeps the redial
// transparent.
func stale(c *conn) bool {
	return c.br.Buffered() > 0 || peerGone(c.Conn)
}

// put returns a healthy connection to the idle pool (or closes it if the
// pool is full or the transport closed meanwhile).
func (t *Transport) put(c *conn) {
	t.mu.Lock()
	if !t.closed && len(t.idle) < t.cfg.MaxIdle {
		t.idle = append(t.idle, c)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	c.Close()
}

func (t *Transport) dialConn(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: t.cfg.DialTimeout}
	c, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", t.addr, err)
	}
	t.dials.Add(1)
	if t.dialsMetric != nil {
		t.dialsMetric.Inc()
	}
	return &conn{Conn: c, br: bufio.NewReader(c)}, nil
}

// roundTrip performs one framed exchange under the call deadline,
// separating write failures (request never committed to the wire) from
// read failures (response lost after the request was sent).
func (t *Transport) roundTrip(ctx context.Context, c *conn, payload []byte) (resp []byte, writeErr, readErr error) {
	deadline := time.Now().Add(t.cfg.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c.SetDeadline(deadline)
	// Cancellation mid-call: expire the connection's deadline so the
	// blocked read/write returns promptly.
	stop := context.AfterFunc(ctx, func() {
		c.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	if err := writeFrame(c, &c.out, payload); err != nil {
		return nil, err, nil
	}
	raw, err := readFrame(c.br, t.cfg.MaxFrame)
	if err != nil {
		return nil, nil, err
	}
	return raw, nil, nil
}

var _ replica.Transport = (*Transport)(nil)
