package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
)

// ErrServerClosed is returned by Listen/Serve on a closed server.
var ErrServerClosed = errors.New("wire: server closed")

// ServerConfig bounds a Server's resource use. Zero values select the
// defaults noted on each field.
type ServerConfig struct {
	// MaxFrame caps the payload size of inbound frames (default
	// DefaultMaxFrame). An oversized frame is answered with an in-band
	// error envelope and the connection is severed — the unread payload
	// cannot be skipped safely.
	MaxFrame int
	// MaxConns caps concurrently served connections (default 64). The
	// accept loop blocks before accepting once the cap is reached, so
	// excess dials queue in the listen backlog instead of growing
	// goroutines — backpressure, not rejection.
	MaxConns int
	// IdleTimeout is the per-connection read deadline between requests
	// (default 2m): a mobile that stays silent longer is assumed
	// disconnected and its connection is dropped (the pooled client
	// transparently redials).
	IdleTimeout time.Duration
	// WriteTimeout is the per-response write deadline (default 10s).
	WriteTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Server accepts TCP connections and feeds their frames to a
// replica.BaseServer's transport-agnostic ServeFrame entry point. Fault
// injection armed on the base server (WithDropEveryNth) is realized by severing
// the connection instead of writing the response — the client observes a
// lost response and retries, exactly as on the in-process transport.
type Server struct {
	base *replica.BaseServer
	cfg  ServerConfig

	// mu guards conns and closed only; no socket I/O runs under it.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	ln  net.Listener
	sem chan struct{} // MaxConns backpressure tokens
	wg  sync.WaitGroup

	// Frame-level byte counters: payload plus header, i.e. what actually
	// crossed the socket (BaseServer.Stats counts payload bytes only).
	framesIn, bytesIn, bytesOut, drops atomic.Int64
	// Envelope bytes inside those frames, so callers can separate framing
	// overhead from payload without knowing the header size.
	payloadIn, payloadOut atomic.Int64
}

// NewServer wraps a base server. Call Listen (or Serve with your own
// listener) to start accepting.
func NewServer(base *replica.BaseServer, cfg ServerConfig) *Server {
	s := &Server{
		base:  base,
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConns)
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve adopts an existing listener and starts the accept loop in the
// background. The server owns the listener from here on (Close closes it).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("wire: server already listening")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listening address, or nil before Listen/Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats reports frames served and bytes moved on the wire (headers
// included), plus responses deliberately dropped by fault injection.
func (s *Server) Stats() (frames, bytesIn, bytesOut, drops int64) {
	return s.framesIn.Load(), s.bytesIn.Load(), s.bytesOut.Load(), s.drops.Load()
}

// PayloadBytes reports the envelope bytes carried inside served frames —
// the portion of Stats's byte totals that is payload rather than framing.
func (s *Server) PayloadBytes() (in, out int64) {
	return s.payloadIn.Load(), s.payloadOut.Load()
}

// Close gracefully drains the server: the listener stops accepting,
// connections idle in a read are unblocked and dropped, handlers mid-merge
// finish and write their response, then Close returns. It does not close
// the underlying BaseServer (its owner does).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Expire reads in progress so idle connection handlers observe the
	// shutdown; a handler past its read (serving a request) is unaffected
	// and completes its write.
	now := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(now)
	}
	s.wg.Wait()
	return nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection; it refuses once the server is closed.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	reg := newServerMetrics(s.base.WireRegistry())
	for {
		// Backpressure: hold a connection token before accepting, so a
		// reconnect storm beyond MaxConns waits in the kernel backlog.
		s.sem <- struct{}{}
		c, err := ln.Accept()
		if err != nil {
			<-s.sem
			if s.isClosed() {
				return
			}
			// Transient accept errors (EMFILE etc.): back off and retry.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !s.track(c) {
			c.Close()
			<-s.sem
			return
		}
		reg.connOpened()
		s.wg.Add(1)
		go s.serveConn(c, reg)
	}
}

// serveConn handles one connection: read a frame, serve it, write the
// response, repeat until error, shutdown, or injected response loss.
func (s *Server) serveConn(c net.Conn, reg *serverMetrics) {
	defer s.wg.Done()
	defer func() {
		s.untrack(c)
		c.Close()
		reg.connClosed()
		<-s.sem
	}()
	br := bufio.NewReader(c)
	var out []byte // the frame buffer, reused across responses
	for {
		c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		payload, err := readFrame(br, s.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadVersion) {
				// Protocol violation: report it in-band, then sever — the
				// oversized payload cannot be skipped safely.
				reg.rejected()
				resp := replica.ErrorFrame(err.Error())
				c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				if werr := writeFrame(c, &out, resp); werr == nil {
					s.bytesOut.Add(int64(len(resp) + headerSize))
				}
			}
			return
		}
		s.framesIn.Add(1)
		s.bytesIn.Add(int64(len(payload) + headerSize))
		s.payloadIn.Add(int64(len(payload)))
		start := time.Now()
		resp, kind, lost := s.base.ServeFrame(payload)
		reg.served(kind, len(payload)+headerSize, time.Since(start))
		if lost {
			// Fault injection consumed the response: realize the loss by
			// severing the connection, so the client redials and retries
			// instead of waiting out a deadline.
			s.drops.Add(1)
			reg.dropped()
			return
		}
		if len(resp) > s.cfg.MaxFrame {
			// The response cannot cross this transport — typically a
			// master checkout larger than MaxFrame. Writing it anyway
			// would make the client's read fail as a (retryable) lost
			// response and redial a request that can never succeed;
			// substitute the small typed in-band error so it fails fast
			// (streaming checkout, ROADMAP item 1, is the real fix).
			reg.rejected()
			resp = replica.OversizedFrame(fmt.Sprintf(
				"response is %d bytes, frame limit %d", len(resp), s.cfg.MaxFrame))
		}
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := writeFrame(c, &out, resp); err != nil {
			return
		}
		s.bytesOut.Add(int64(len(resp) + headerSize))
		s.payloadOut.Add(int64(len(resp)))
		reg.wrote(len(resp) + headerSize)
	}
}

// serverMetrics bills the server's tiermerge_wire_* series into the base
// server's registry (WithObserver); with no registry attached every method
// is a nil-safe no-op.
type serverMetrics struct {
	reg       *obs.Registry
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	conns     *obs.Counter
	open      *obs.Gauge
	drops     *obs.Counter
	rejects   *obs.Counter
	mu        sync.Mutex
	endpoints map[string]endpointMetrics
}

type endpointMetrics struct {
	requests *obs.Counter
	seconds  *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	if reg == nil {
		return m
	}
	m.bytesIn = reg.Counter("tiermerge_wire_bytes_in_total")
	m.bytesOut = reg.Counter("tiermerge_wire_bytes_out_total")
	m.conns = reg.Counter("tiermerge_wire_conns_total")
	m.open = reg.Gauge("tiermerge_wire_conns_open")
	m.drops = reg.Counter("tiermerge_wire_drops_total")
	m.rejects = reg.Counter("tiermerge_wire_frames_rejected_total")
	m.endpoints = make(map[string]endpointMetrics)
	return m
}

// endpoint returns the per-endpoint series, creating them on first use.
// The mutex guards only the map; registry lookups allocate at most once
// per endpoint name.
func (m *serverMetrics) endpoint(kind string) endpointMetrics {
	if kind == "" {
		kind = "unknown"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[kind]
	if !ok {
		e = endpointMetrics{
			requests: m.reg.Counter(obs.Label("tiermerge_wire_requests_total", "endpoint", kind)),
			seconds:  m.reg.Histogram(obs.Label("tiermerge_wire_request_seconds", "endpoint", kind), nil),
		}
		m.endpoints[kind] = e
	}
	return e
}

func (m *serverMetrics) connOpened() {
	if m.reg == nil {
		return
	}
	m.conns.Inc()
	m.open.Add(1)
}

func (m *serverMetrics) connClosed() {
	if m.reg == nil {
		return
	}
	m.open.Add(-1)
}

func (m *serverMetrics) served(kind string, frameBytes int, d time.Duration) {
	if m.reg == nil {
		return
	}
	e := m.endpoint(kind)
	e.requests.Inc()
	e.seconds.ObserveDuration(d)
	m.bytesIn.Add(int64(frameBytes))
}

func (m *serverMetrics) wrote(frameBytes int) {
	if m.reg == nil {
		return
	}
	m.bytesOut.Add(int64(frameBytes))
}

func (m *serverMetrics) dropped() {
	if m.reg == nil {
		return
	}
	m.drops.Inc()
}

func (m *serverMetrics) rejected() {
	if m.reg == nil {
		return
	}
	m.rejects.Inc()
}

// String summarizes the listener for logs.
func (s *Server) String() string {
	if a := s.Addr(); a != nil {
		return fmt.Sprintf("wire.Server(%s)", a)
	}
	return "wire.Server(idle)"
}
