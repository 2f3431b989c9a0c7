package wire

// Transport-conformance suite: every test here runs the same workload over
// the in-process channel transport and over real loopback TCP, asserting
// the two are observationally identical — round-trip outcomes, lost-response
// retry behavior under fault injection, exactly-once semantics under
// duplicated frames, and shutdown behavior. The protocol-violation tests
// (oversized frames, bad version byte) are TCP-only: the channel transport
// has no framing to violate.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

func testOrigin() model.State {
	return model.StateOf(map[model.Item]model.Value{"acct": 100, "x": 0, "y": 0})
}

// env is one transport under test: a base cluster, its server, and a
// factory for client transports.
type env struct {
	name    string
	cluster *replica.BaseCluster
	srv     *replica.BaseServer
	dial    func() replica.Transport
	close   func()
}

// newEnvs builds one channel-transport env and one TCP env with identical
// clusters, so a workload driven through both must produce identical
// results.
func newEnvs(t *testing.T, opts ...replica.ServeOption) []*env {
	t.Helper()
	var envs []*env

	chanCluster := replica.NewBaseCluster(testOrigin(), replica.Config{})
	chanSrv := replica.Serve(chanCluster, opts...)
	envs = append(envs, &env{
		name:    "chan",
		cluster: chanCluster,
		srv:     chanSrv,
		dial:    func() replica.Transport { return chanSrv.Transport() },
		close:   chanSrv.Close,
	})

	tcpCluster := replica.NewBaseCluster(testOrigin(), replica.Config{})
	tcpSrv := replica.Serve(tcpCluster, opts...)
	ws := NewServer(tcpSrv, ServerConfig{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		trs    []*Transport
		closed bool
	)
	envs = append(envs, &env{
		name:    "tcp",
		cluster: tcpCluster,
		srv:     tcpSrv,
		dial: func() replica.Transport {
			tr := Dial(addr.String(), ClientConfig{})
			mu.Lock()
			if closed {
				mu.Unlock()
				tr.Close()
				return tr
			}
			trs = append(trs, tr)
			mu.Unlock()
			return tr
		},
		close: func() {
			mu.Lock()
			closed = true
			open := trs
			trs = nil
			mu.Unlock()
			for _, tr := range open {
				tr.Close()
			}
			ws.Close()
			tcpSrv.Close()
		},
	})
	return envs
}

// outcomeKey flattens a ConnectOutcome for cross-transport comparison.
func outcomeKey(out *replica.ConnectOutcome) string {
	return fmt.Sprintf("merged=%v fallback=%q saved=%d reproc=%d failed=%d bad=%v",
		out.Merged, out.Fallback, out.Saved, out.Reprocessed, out.Failed, out.BadIDs)
}

// TestConformanceRoundTrips drives checkout + merge + reprocess periods
// over both transports and requires identical outcomes and masters.
func TestConformanceRoundTrips(t *testing.T) {
	results := make(map[string]string)
	for _, e := range newEnvs(t) {
		t.Run(e.name, func(t *testing.T) {
			defer e.close()
			ctx := context.Background()
			var log strings.Builder

			c1, err := replica.DialTransport(ctx, "m1", e.dial())
			if err != nil {
				t.Fatal(err)
			}
			c2, err := replica.DialTransport(ctx, "m2", e.dial())
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
				t.Fatal(err)
			}
			if err := c2.Run(workload.Deposit("T2", tx.Tentative, "x", 7)); err != nil {
				t.Fatal(err)
			}
			out1, err := c1.ConnectMergeContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out2, err := c2.ConnectReprocessContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// Second period over the refreshed checkouts.
			if err := c1.Run(workload.SetPrice("T3", tx.Tentative, "y", 42)); err != nil {
				t.Fatal(err)
			}
			out3, err := c1.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}
			master, err := c1.MasterRemote(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&log, "out1{%s} out2{%s} out3{%s} master{%s} local{%s}",
				outcomeKey(out1), outcomeKey(out2), outcomeKey(out3),
				master.String(), c1.Local().String())
			if master.String() != e.cluster.Master().String() {
				t.Errorf("MasterRemote %s != cluster master %s", master, e.cluster.Master())
			}
			results[e.name] = log.String()
		})
	}
	if results["chan"] != results["tcp"] {
		t.Errorf("transports disagree:\n chan: %s\n tcp:  %s", results["chan"], results["tcp"])
	}
}

// TestConformanceDropRetryParity arms DropEveryNth on both transports: the
// channel transport loses the response in place, the TCP server severs the
// connection. Clients must retry through either realization and the
// sequence-number dedup must keep every merge exactly-once.
func TestConformanceDropRetryParity(t *testing.T) {
	const mobiles, rounds = 3, 4
	masters := make(map[string]string)
	for _, e := range newEnvs(t, replica.WithDropEveryNth(3), replica.WithWorkers(2)) {
		t.Run(e.name, func(t *testing.T) {
			defer e.close()
			ctx := context.Background()
			var wg sync.WaitGroup
			errs := make([]error, mobiles)
			// Reconnects serialize through connMu: with every-3rd-response
			// loss and clients contributing frames in lockstep, a client's
			// retries can resonate with the drop schedule and never land on
			// a delivered slot — a test artifact, not a protocol property.
			// Serialized reconnects keep the frame order per retry loop
			// consecutive, so a retry deterministically follows its drop.
			var connMu sync.Mutex
			for i := 0; i < mobiles; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					connMu.Lock()
					c, err := replica.DialTransport(ctx, fmt.Sprintf("m%d", i+1), e.dial())
					connMu.Unlock()
					if err != nil {
						errs[i] = err
						return
					}
					for r := 0; r < rounds; r++ {
						id := fmt.Sprintf("T%d.%d", i, r)
						if err := c.Run(workload.Deposit(id, tx.Tentative, "acct", 1)); err != nil {
							errs[i] = err
							return
						}
						connMu.Lock()
						_, err := c.ConnectMergeContext(ctx)
						connMu.Unlock()
						if err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("mobile %d: %v", i, err)
				}
			}
			want := int64(100 + mobiles*rounds)
			if got := e.cluster.Master().Get("acct"); int64(got) != want {
				t.Errorf("acct = %d, want %d (lost or duplicated merges through retries)", got, want)
			}
			masters[e.name] = e.cluster.Master().String()
		})
	}
	if masters["chan"] != masters["tcp"] {
		t.Errorf("transports disagree after drop/retry:\n chan: %s\n tcp:  %s",
			masters["chan"], masters["tcp"])
	}
}

// captureTransport records every payload it forwards.
type captureTransport struct {
	inner    replica.Transport
	mu       sync.Mutex
	payloads [][]byte
}

func (ct *captureTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	ct.mu.Lock()
	ct.payloads = append(ct.payloads, append([]byte(nil), payload...))
	ct.mu.Unlock()
	return ct.inner.Call(ctx, payload)
}

func (ct *captureTransport) Close() error { return ct.inner.Close() }

// TestConformanceExactlyOnceDuplicatedFrames replays a captured merge
// payload — through Call on both transports, and additionally byte-for-byte
// over a raw TCP connection — and requires the duplicate to hit the dedup
// cache instead of double-applying.
func TestConformanceExactlyOnceDuplicatedFrames(t *testing.T) {
	for _, e := range newEnvs(t) {
		t.Run(e.name, func(t *testing.T) {
			defer e.close()
			ctx := context.Background()
			ct := &captureTransport{inner: e.dial()}
			c, err := replica.DialTransport(ctx, "m1", ct)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ConnectMergeContext(ctx); err != nil {
				t.Fatal(err)
			}
			// payloads: [checkout, merge, checkout]; replay the merge.
			ct.mu.Lock()
			var mergeFrame []byte
			for _, p := range ct.payloads {
				if strings.Contains(string(p), `"kind":"merge"`) {
					mergeFrame = p
				}
			}
			ct.mu.Unlock()
			if mergeFrame == nil {
				t.Fatal("no merge payload captured")
			}
			dup, err := ct.inner.Call(ctx, mergeFrame)
			if err != nil {
				t.Fatal(err)
			}
			var resp struct {
				Saved int `json:"saved"`
			}
			if err := json.Unmarshal(dup, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Saved != 1 {
				t.Errorf("duplicate merge response saved = %d, want cached 1", resp.Saved)
			}
			if got := e.cluster.Master().Get("acct"); got != 105 {
				t.Errorf("acct = %d, want 105 (duplicate frame double-applied)", got)
			}
		})
	}

	// Raw-socket variant: the same frame written twice on one connection.
	pair := newEnvs(t)
	defer pair[0].close()
	e := pair[1]
	defer e.close()
	ctx := context.Background()
	ct := &captureTransport{inner: e.dial()}
	c, err := replica.DialTransport(ctx, "m1", ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectMergeContext(ctx); err != nil {
		t.Fatal(err)
	}
	ct.mu.Lock()
	var mergeFrame []byte
	for _, p := range ct.payloads {
		if strings.Contains(string(p), `"kind":"merge"`) {
			mergeFrame = p
		}
	}
	ct.mu.Unlock()
	addr := ct.inner.(*Transport).addr
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var first, second []byte
	for i := 0; i < 2; i++ {
		if err := writeFrame(conn, mergeFrame); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(conn, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = raw
		} else {
			second = raw
		}
	}
	if string(first) != string(second) {
		t.Errorf("duplicate frame responses differ:\n %s\n %s", first, second)
	}
	if got := e.cluster.Master().Get("acct"); got != 105 {
		t.Errorf("acct = %d, want 105 (raw duplicate double-applied)", got)
	}
}

// TestConformanceServerCloseMidFlight closes each server while clients are
// mid-call: in-flight and subsequent calls must fail promptly (no hangs,
// no panics), never silently succeed with a stale transport.
func TestConformanceServerCloseMidFlight(t *testing.T) {
	for _, e := range newEnvs(t) {
		t.Run(e.name, func(t *testing.T) {
			ctx := context.Background()
			c, err := replica.DialTransport(ctx, "m1", e.dial())
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Hammer checkouts until the shutdown surfaces as an error.
				for i := 0; i < 10000; i++ {
					cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
					_, err := c.MasterRemote(cctx)
					cancel()
					if err != nil {
						return
					}
				}
			}()
			time.Sleep(10 * time.Millisecond)
			e.close()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Fatal("client call did not observe server close")
			}
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if _, err := c.MasterRemote(cctx); err == nil {
				t.Error("call after server close succeeded")
			}
		})
	}
}

// TestOversizedFrameRejection: the client rejects oversized requests
// locally; a client that lies about its limit gets an in-band error
// envelope from the server, which then severs the connection.
func TestOversizedFrameRejection(t *testing.T) {
	cluster := replica.NewBaseCluster(testOrigin(), replica.Config{})
	srv := replica.Serve(cluster)
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{MaxFrame: 1 << 12})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	ctx := context.Background()

	// Client-side rejection: the limit is enforced before any bytes move.
	small := Dial(addr.String(), ClientConfig{MaxFrame: 1 << 12})
	defer small.Close()
	if _, err := small.Call(ctx, make([]byte, 1<<13)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("client-side oversized Call = %v, want ErrFrameTooLarge", err)
	}

	// Server-side rejection: a client with a looser limit sends anyway and
	// gets the in-band error envelope.
	loose := Dial(addr.String(), ClientConfig{MaxFrame: 1 << 20})
	defer loose.Close()
	raw, err := loose.Call(ctx, make([]byte, 1<<13))
	if err != nil {
		t.Fatalf("lying client Call error = %v, want in-band envelope", err)
	}
	var resp struct {
		Err string `json:"err"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "frame exceeds maximum size") {
		t.Errorf("server error envelope = %q, want frame-size rejection", resp.Err)
	}
	if f, _, _, _ := ws.Stats(); f != 0 {
		t.Errorf("oversized frame reached ServeFrame")
	}

	// A healthy request still works on a fresh connection afterwards.
	if _, err := replica.DialTransport(ctx, "m1", loose); err != nil {
		t.Errorf("post-rejection checkout failed: %v", err)
	}
}

// TestBadVersionRejection: a frame with the wrong version byte — here the
// previous version's, whose envelopes carried JSON journals — is answered
// with an in-band error and the connection severed.
func TestBadVersionRejection(t *testing.T) {
	cluster := replica.NewBaseCluster(testOrigin(), replica.Config{})
	srv := replica.Serve(cluster)
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte{0x01, 0, 0, 0, 2, '{', '}'}); err != nil {
		t.Fatal(err)
	}
	raw, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "unknown protocol version") {
		t.Errorf("bad-version response = %s", raw)
	}
}

// TestWireMetrics: with an observer attached at Serve time, the TCP layer
// bills the tiermerge_wire_* series into its registry.
func TestWireMetrics(t *testing.T) {
	metrics := obs.NewMetrics()
	cluster := replica.NewBaseCluster(testOrigin(), replica.Config{Observer: metrics})
	srv := replica.Serve(cluster, replica.WithObserver(metrics))
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	tr := Dial(addr.String(), ClientConfig{Registry: metrics.Registry()})
	defer tr.Close()
	ctx := context.Background()
	c, err := replica.DialTransport(ctx, "m1", tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConnectMergeContext(ctx); err != nil {
		t.Fatal(err)
	}
	// The server bills a response after writing it, so the client can hold
	// the response before the handler has billed it: drain the handler
	// goroutines (Close waits on them) before reading any counter.
	tr.Close()
	ws.Close()
	snap := metrics.Registry().Snapshot()
	for _, name := range []string{
		"tiermerge_wire_bytes_in_total",
		"tiermerge_wire_bytes_out_total",
		"tiermerge_wire_conns_total",
		`tiermerge_wire_requests_total{endpoint="checkout"}`,
		`tiermerge_wire_requests_total{endpoint="merge"}`,
		"tiermerge_wire_dials_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0 (have: %v)", name, snap.Counters)
		}
	}
	if snap.Histograms[`tiermerge_wire_request_seconds{endpoint="merge"}`].Count == 0 {
		t.Error("merge request histogram empty")
	}
	frames, in, out, _ := ws.Stats()
	sReqs, sIn, sOut := srv.Stats()
	if frames != sReqs {
		t.Errorf("wire frames %d != server requests %d", frames, sReqs)
	}
	wantIn := sIn + frames*headerSize
	wantOut := sOut + frames*headerSize
	if in != wantIn || out != wantOut {
		t.Errorf("on-wire bytes (%d,%d) != payload+headers (%d,%d)", in, out, wantIn, wantOut)
	}
}

// TestPoolRedial: the server idles a pooled connection out; the next Call
// must transparently redial instead of failing.
func TestPoolRedial(t *testing.T) {
	cluster := replica.NewBaseCluster(testOrigin(), replica.Config{})
	srv := replica.Serve(cluster)
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{IdleTimeout: 30 * time.Millisecond})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	tr := Dial(addr.String(), ClientConfig{})
	defer tr.Close()
	ctx := context.Background()
	c, err := replica.DialTransport(ctx, "m1", tr)
	if err != nil {
		t.Fatal(err)
	}
	// Let the server's idle timeout reap the pooled connection, then call
	// again: the stale conn fails on write and is redialed silently.
	time.Sleep(150 * time.Millisecond)
	if _, err := c.MasterRemote(ctx); err != nil {
		t.Fatalf("call over reaped pool: %v", err)
	}
	if dials, redials := tr.Stats(); dials < 2 || redials < 1 {
		t.Errorf("dials=%d redials=%d, want a transparent redial", dials, redials)
	}
}

// countingTransport counts Calls passing through to the wrapped transport.
type countingTransport struct {
	replica.Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	c.calls.Add(1)
	return c.Transport.Call(ctx, payload)
}

// TestOversizedCheckoutFailsFast: a master larger than the transport's
// frame limit can never cross it, so the checkout must fail fast with the
// typed replica.ErrOversized — not surface as a retryable lost response
// and redial a request that can never succeed. Regression: the server used
// to write the oversized response anyway, the client's read failed with
// ErrFrameTooLarge wrapped into ErrResponseLost, and the jittered-backoff
// retry loop redialed it MaxRetries times.
func TestOversizedCheckoutFailsFast(t *testing.T) {
	big := model.NewState()
	for i := 0; i < 512; i++ {
		big.Set(model.Item(fmt.Sprintf("item-%04d", i)), model.Value(i))
	}
	cluster := replica.NewBaseCluster(big, replica.Config{})
	srv := replica.Serve(cluster)
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{MaxFrame: 2048})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	tr := Dial(addr.String(), ClientConfig{MaxFrame: 2048})
	defer tr.Close()
	ct := &countingTransport{Transport: tr}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = replica.DialTransport(ctx, "m1", ct)
	if !errors.Is(err, replica.ErrOversized) {
		t.Fatalf("oversized checkout error = %v, want replica.ErrOversized", err)
	}
	if errors.Is(err, replica.ErrResponseLost) {
		t.Errorf("oversized checkout classified as retryable lost response: %v", err)
	}
	if n := ct.calls.Load(); n != 1 {
		t.Errorf("oversized checkout took %d attempts, want 1 (fail fast, no retry)", n)
	}
}
