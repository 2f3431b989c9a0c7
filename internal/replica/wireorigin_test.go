package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiermerge/internal/codec"
	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// Tests for the origin a reconnect moves over the wire: the merge payload
// carries Hm's footprint of the origin and the base checks it against the
// state at the token; the answer to a merge into the window the client
// holds says Same and carries no origin, and no checkout follows it.

// mergeFrame encodes a merge request whose journal starts from origin at
// window and runs txns on it.
func mergeFrame(t *testing.T, window int, origin model.State, txns ...*tx.Transaction) []byte {
	t.Helper()
	hm, err := history.Run(history.New(txns...), origin)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if _, err := wal.NewPeriod(&journal, window, 0, origin, len(txns),
		func(i int) (*tx.Transaction, *tx.Effect) { return hm.H.Txn(i), hm.Effects[i] }); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Epoch: "e1", Journal: journal.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// serveOne sends one frame to srv and decodes the response.
func serveOne(t *testing.T, srv *BaseServer, payload []byte) wireResp {
	t.Helper()
	raw, _, lost := srv.ServeFrame(payload)
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil || lost {
		t.Fatalf("response %q lost=%v: %v", raw, lost, err)
	}
	return resp
}

// TestMergeRefusesForeignOrigin: a Strategy 2 merge frame whose checkout
// origin claims a value the window origin never held falls back with
// FallbackOriginInvalid, and the reprocessed transaction reads the base's
// value. Regression: the base checked only the window ID, replay verified
// the log against the payload's own origin, and y := x installed y = 999.
// The variants omit x from the payload (replayed as zero) and cross two
// shards, whose tokens wireTokens synthesizes.
func TestMergeRefusesForeignOrigin(t *testing.T) {
	copyXY := tx.MustNew("Tm1", tx.Tentative, tx.Update("y", expr.Var("x")))
	splitX := func(it model.Item) int {
		if it == "x" {
			return 0
		}
		return 1
	}
	tiers := map[string]func() BaseTier{
		"cluster": func() BaseTier { return NewBaseCluster(origin(), Config{}) },
		"2shards": func() BaseTier { return NewShardedBase(origin(), 2, Config{ShardFn: splitX}) },
	}
	claims := map[string]model.State{
		"foreign": {"x": 999, "y": 200},
		"omitted": {"y": 200},
	}
	for tname, mk := range tiers {
		for cname, claim := range claims {
			t.Run(tname+"/"+cname, func(t *testing.T) {
				tier := mk()
				srv := Serve(tier)
				defer srv.Close()
				resp := serveOne(t, srv, mergeFrame(t, 1, claim.Clone(), copyXY))
				if resp.Err != "" || resp.Merged || resp.Fallback != string(FallbackOriginInvalid) {
					t.Fatalf("response %+v, want an origin-invalidated fallback", resp)
				}
				if got := tier.Master().Get("y"); got != 100 {
					t.Errorf("y = %d, want 100: the serial order reads the base's x", got)
				}
			})
		}
	}
}

// TestWireReconnectCostIndependentOfItems: one reconnect of a wire client —
// its merge and the answer that restarts its period — moves and allocates
// what Hm touches, not the replica. Regression: the merge payload and the
// checkout after the merge each carried the whole origin.
func TestWireReconnectCostIndependentOfItems(t *testing.T) {
	reconnectCost := func(items int) (moved int64, allocated uint64) {
		initial := model.NewState()
		for i := 0; i < items; i++ {
			initial.Set(workload.ItemName(i), 100)
		}
		b := NewBaseCluster(initial, Config{})
		for i := 0; i < 64; i++ {
			it := workload.ItemName(1 + i%63)
			if err := b.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", i), tx.Base, it, 1)); err != nil {
				t.Fatal(err)
			}
		}
		srv := Serve(b)
		defer srv.Close()
		c, err := Dial("m1", srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(workload.Deposit("Tm1", tx.Tentative, workload.ItemName(0), 1)); err != nil {
			t.Fatal(err)
		}
		_, in0, out0 := srv.Stats()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := c.ConnectMerge()
		runtime.ReadMemStats(&after)
		if err != nil || !out.Merged || out.Saved != 1 {
			t.Fatalf("reconnect on %d items = %+v, %v; want 1 saved", items, out, err)
		}
		_, in1, out1 := srv.Stats()
		return in1 - in0 + out1 - out0, after.TotalAlloc - before.TotalAlloc
	}
	smallB, smallA := reconnectCost(64)
	largeB, largeA := reconnectCost(4096)
	t.Logf("reconnect moved %d B and allocated %d B on 64 items, %d B and %d B on 4096 items",
		smallB, smallA, largeB, largeA)
	if largeB > 2*smallB {
		t.Errorf("reconnect on 4096 items moved %d payload bytes, more than 2x the %d on 64 items", largeB, smallB)
	}
	if largeA > 2*smallA {
		t.Errorf("reconnect on 4096 items allocated %d B, more than 2x the %d B on 64 items", largeA, smallA)
	}
}

// recordingTransport records every request and raw response crossing it,
// and calls after (when set) once each response is back; an error after
// returns is the call's instead, so the recorded response is lost.
type recordingTransport struct {
	Transport
	after func(req wireReq) error

	mu    sync.Mutex
	reqs  []wireReq
	resps [][]byte
}

func (r *recordingTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	raw, err := r.Transport.Call(ctx, payload)
	var req wireReq
	if jerr := json.Unmarshal(payload, &req); jerr != nil {
		return nil, jerr
	}
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	r.resps = append(r.resps, raw)
	r.mu.Unlock()
	if r.after != nil {
		if aerr := r.after(req); aerr != nil {
			return nil, aerr
		}
	}
	return raw, err
}

// last returns the i-th recorded call from the end (0: the last one) as its
// request, decoded response and raw top-level response fields.
func (r *recordingTransport) last(t *testing.T, i int) (wireReq, wireResp, map[string]json.RawMessage) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.reqs) - 1 - i
	var resp wireResp
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(r.resps[n], &resp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(r.resps[n], &fields); err != nil {
		t.Fatal(err)
	}
	return r.reqs[n], resp, fields
}

// TestRecheckoutProtocol: the answer to a merged Strategy 2 reconnect into
// the window the client holds says Same, carries no origin, and no checkout
// follows it; every other reconnect — a moved window (also on a replay), a
// fallback, Strategy 1 — is followed by a checkout carrying the whole
// origin, as is the first dial; the merge frame carries Hm's footprint of
// the origin.
func TestRecheckoutProtocol(t *testing.T) {
	type env struct {
		b  *BaseCluster
		rt *recordingTransport
		c  *Client
	}
	cases := []struct {
		name   string
		origin OriginStrategy
		// before runs after the dial, before the reconnect's Hm.
		before func(t *testing.T, e *env)
		check  func(t *testing.T, e *env, out *ConnectOutcome)
	}{
		{"same-window", Strategy2, nil, func(t *testing.T, e *env, out *ConnectOutcome) {
			req, resp, fields := e.rt.last(t, 0)
			if !out.Merged || req.Kind != reqMerge || !resp.Same || resp.Window != 1 {
				t.Fatalf("outcome %+v, %s answered %+v; want a merge answered same-window", out, req.Kind, resp)
			}
			if _, ok := fields["origin"]; ok {
				t.Errorf("same-window answer carries an origin: %v", fields)
			}
			if got := e.c.Local(); !got.Equal(origin()) {
				t.Errorf("local = %s after the merge, want the window origin %s", got, origin())
			}
		}},
		{"window-advanced", Strategy2, func(t *testing.T, e *env) {
			if err := e.b.ExecBase(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
				t.Fatal(err)
			}
			// The merge's answer is lost, and the window moves before the
			// client's retry arrives.
			lost := false
			e.rt.after = func(req wireReq) error {
				if req.Kind != reqMerge || lost {
					return nil
				}
				lost = true
				e.b.AdvanceWindow()
				return ErrResponseLost
			}
		}, func(t *testing.T, e *env, out *ConnectOutcome) {
			first, firstResp, _ := e.rt.last(t, 2)
			retry, retryResp, fields := e.rt.last(t, 1)
			req, resp, _ := e.rt.last(t, 0)
			if first.Kind != reqMerge || !firstResp.Same || retry.Kind != reqMerge || retry.Seq != first.Seq {
				t.Fatalf("%s seq %d answered %+v, then %s seq %d; want a same-window merge answer lost and its retry",
					first.Kind, first.Seq, firstResp, retry.Kind, retry.Seq)
			}
			if !out.Merged || retryResp.Same || fields["origin"] != nil {
				t.Fatalf("outcome %+v, replay answered %+v; want the merge replayed without same", out, retryResp)
			}
			want := e.b.Master()
			if req.Kind != reqCheckout || resp.Same || resp.Window != 2 || !respOrigin(t, resp).Equal(want) || len(respOrigin(t, resp)) != len(want) {
				t.Fatalf("%s answered %+v; want the whole new origin %s", req.Kind, resp, want)
			}
			if got := e.c.Local(); !got.Equal(want) {
				t.Errorf("local = %s, want the new window origin %s", got, want)
			}
		}},
		{"origin-invalid", Strategy2, func(t *testing.T, e *env) {
			forged := e.c.node.ck.Origin.Clone()
			forged.Set("x", 999)
			e.c.node.resetFrom(Checkout{MobileID: "m1", WindowID: e.c.node.ck.WindowID, Origin: forged})
		}, func(t *testing.T, e *env, out *ConnectOutcome) {
			_, mergeResp, _ := e.rt.last(t, 1)
			req, resp, _ := e.rt.last(t, 0)
			if out.Merged || out.Fallback != FallbackOriginInvalid || mergeResp.Same || req.Kind != reqCheckout || resp.Same || len(respOrigin(t, resp)) != len(origin()) {
				t.Fatalf("outcome %+v, %s answered %+v; want a fallback and the whole origin", out, req.Kind, resp)
			}
			if got := e.c.Local(); !got.Equal(origin()) {
				t.Errorf("local = %s, want the window origin %s", got, origin())
			}
		}},
		{"strategy-1", Strategy1, func(t *testing.T, e *env) {
			if err := e.b.ExecBase(workload.Deposit("Tb1", tx.Base, "y", 7)); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, e *env, out *ConnectOutcome) {
			_, mergeResp, _ := e.rt.last(t, 1)
			req, resp, _ := e.rt.last(t, 0)
			want := e.b.Master()
			if !out.Merged || mergeResp.Same || req.Kind != reqCheckout || resp.Same || !respOrigin(t, resp).Equal(want) || len(respOrigin(t, resp)) != len(want) {
				t.Fatalf("outcome %+v, %s answered %+v; want the whole master %s", out, req.Kind, resp, want)
			}
		}},
		{"first-dial", Strategy2, nil, func(t *testing.T, e *env, _ *ConnectOutcome) {
			e.rt.mu.Lock()
			req, raw := e.rt.reqs[0], e.rt.resps[0]
			e.rt.mu.Unlock()
			var resp wireResp
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if req.Kind != reqCheckout || resp.Same || !respOrigin(t, resp).Equal(origin()) || len(respOrigin(t, resp)) != len(origin()) {
				t.Fatalf("first checkout %+v answered %s; want the whole origin", req, raw)
			}
		}},
		{"footprint-payload", Strategy2, nil, func(t *testing.T, e *env, _ *ConnectOutcome) {
			req, _, _ := e.rt.last(t, 0)
			res, err := wal.Scan(bytes.NewReader(req.Journal), wal.Strict)
			if err != nil || req.Kind != reqMerge || len(res.Records) == 0 || res.Records[0].Kind != wal.KindCheckout {
				t.Fatalf("merge journal: %v, %+v", err, res)
			}
			got := model.StateOf(res.Records[0].Origin).Items()
			want := []model.Item{"v", "w", "x", "z"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("checkout origin items = %v, want Hm's footprint %v", got, want)
			}
			if v, ok := res.Records[0].Origin["v"]; !ok || v != 0 {
				t.Errorf("footprint item v absent from the origin is %d (present %v), want an explicit zero", v, ok)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{b: NewBaseCluster(origin(), Config{Origin: tc.origin})}
			srv := Serve(e.b)
			defer srv.Close()
			e.rt = &recordingTransport{Transport: srv.Transport()}
			var err error
			if e.c, err = DialTransport(context.Background(), "m1", e.rt); err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				tc.before(t, e)
			}
			for _, tm := range []*tx.Transaction{
				workload.Deposit("Tm1", tx.Tentative, "x", 5),
				workload.Transfer("Tm2", tx.Tentative, "z", "w", 3),
				workload.Deposit("Tm3", tx.Tentative, "v", 1),
			} {
				if err := e.c.Run(tm); err != nil {
					t.Fatal(err)
				}
			}
			out, err := e.c.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, e, out)
		})
	}
}

// TestRecheckoutRacesWindowAdvance: four wire clients reconnect deposits
// while another goroutine advances the window. Every deposit is saved or
// reprocessed, none fails, the master's balance is exact, and a final
// reconnect leaves each client on the current window origin.
func TestRecheckoutRacesWindowAdvance(t *testing.T) {
	const clients, rounds = 4, 25
	initial := model.NewState()
	for i := 0; i < clients; i++ {
		initial.Set(workload.ItemName(i), 0)
	}
	b := NewBaseCluster(initial, Config{})
	srv := Serve(b, WithWorkers(2))
	defer srv.Close()

	stop := make(chan struct{})
	advanced := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				advanced <- n
				return
			default:
				b.AdvanceWindow()
				n++
				// Let some reconnects merge and re-check out in between.
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	var merged atomic.Int64
	deposited := make([]model.Value, clients)
	errs := make([]error, clients)
	cs := make([]*Client, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(fmt.Sprintf("m%d", g), srv)
			if err != nil {
				errs[g] = err
				return
			}
			cs[g] = c
			for r := 0; r < rounds; r++ {
				n := 1 + r%3
				for k := 0; k < n; k++ {
					amt := model.Value(1 + (g+r+k)%5)
					// Half the deposits go to a neighbour's account.
					it := workload.ItemName((g + k%2) % clients)
					if err := c.Run(workload.Deposit(fmt.Sprintf("T%d.%d.%d", g, r, k), tx.Tentative, it, amt)); err != nil {
						errs[g] = err
						return
					}
					deposited[g] += amt
				}
				out, err := c.ConnectMerge()
				if err != nil {
					errs[g] = err
					return
				}
				if out.Merged {
					merged.Add(1)
				}
				if out.Failed != 0 || out.Saved+out.Reprocessed != n {
					errs[g] = fmt.Errorf("round %d: outcome %+v accounts for %d of %d deposits",
						r, out, out.Saved+out.Reprocessed, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	t.Logf("window advanced %d times; %d of %d reconnects merged", <-advanced, merged.Load(), clients*rounds)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var want, got model.Value
	for _, d := range deposited {
		want += d
	}
	for _, v := range b.Master() {
		got += v
	}
	if got != want {
		t.Fatalf("master balance = %d, want the %d deposited", got, want)
	}
	windowOrigin := b.CheckoutReplica("probe").Origin
	for g, c := range cs {
		if _, err := c.ConnectMerge(); err != nil {
			t.Fatal(err)
		}
		if local := c.Local(); !local.Equal(windowOrigin) {
			t.Errorf("client %d local = %s, want the window origin %s", g, local, windowOrigin)
		}
	}
}

// TestWireStrategy1FootprintTokens: a Strategy 1 wire token carries Hm's
// footprint of the origin, so an interior insert outside the footprint
// leaves it valid (the merge is installed, and the master is the serial
// order's) while one inside it invalidates it.
func TestWireStrategy1FootprintTokens(t *testing.T) {
	cases := []struct {
		name string
		// item is the wire client's deposit; the interior insert deposits
		// on w.
		item   model.Item
		merged bool
	}{
		{"insert-outside-footprint", "z", true},
		{"insert-inside-footprint", "w", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBaseCluster(origin(), Config{Origin: Strategy1})
			srv := Serve(b)
			defer srv.Close()
			tb := []*tx.Transaction{
				workload.Deposit("Tb1", tx.Base, "x", 1),
				workload.Deposit("Tb2", tx.Base, "y", 1),
				workload.Deposit("Tb3", tx.Base, "x", 1),
			}
			for _, bt := range tb[:2] {
				if err := b.ExecBase(bt); err != nil {
					t.Fatal(err)
				}
			}
			tokK := b.CheckoutReplica("k") // position 2
			if err := b.ExecBase(tb[2]); err != nil {
				t.Fatal(err)
			}
			c, err := Dial("m1", srv) // position 3
			if err != nil {
				t.Fatal(err)
			}
			tm := workload.Deposit("Tm1", tx.Tentative, tc.item, 4)
			if err := c.Run(tm); err != nil {
				t.Fatal(err)
			}

			// The interior insert: tokK's holder deposits on w, which no
			// later entry touches, so it lands at position 2.
			tk := workload.Deposit("Tk", tx.Tentative, "w", 5)
			hk := history.Start(tokK.Origin)
			if _, err := hk.Append(tk); err != nil {
				t.Fatal(err)
			}
			if out, err := b.Merge(tokK, hk); err != nil || !out.Merged {
				t.Fatalf("interior insert = %+v, %v; want merged", out, err)
			}

			out, err := c.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}
			if tc.merged {
				if !out.Merged || out.Saved != 1 {
					t.Fatalf("outcome %+v, want the deposit merged", out)
				}
				serial, err := history.Run(history.New(tb[0], tb[1], tk, tb[2], tm), origin())
				if err != nil {
					t.Fatal(err)
				}
				if got := b.Master(); !got.Equal(serial.Final()) {
					t.Errorf("master = %s, want the serial order's %s", got, serial.Final())
				}
				return
			}
			if out.Merged || out.Fallback != FallbackOriginInvalid || out.Reprocessed != 1 {
				t.Fatalf("outcome %+v, want an origin-invalidated fallback", out)
			}
			if got := b.Master().Get("w"); got != 409 {
				t.Errorf("w = %d, want 409", got)
			}
		})
	}
}

// TestStrategy1TokenSeesInsertedItem: an interior insert that creates an
// item changes the state at every later position, and a whole-origin token
// taken there before the insert lacks the item. The entry the insert
// shifts past the token wrote no new value, so every item the token
// carries still matches; a history that read the new item (as zero) is
// refused all the same, and its reprocessed transaction reads the inserted
// value.
func TestStrategy1TokenSeesInsertedItem(t *testing.T) {
	b := NewBaseCluster(origin(), Config{Origin: Strategy1})
	for _, bt := range []*tx.Transaction{
		workload.Deposit("Tb1", tx.Base, "x", 1),
		workload.Deposit("Tb2", tx.Base, "y", 1),
	} {
		if err := b.ExecBase(bt); err != nil {
			t.Fatal(err)
		}
	}
	tokK := b.CheckoutReplica("k") // position 2
	if err := b.ExecBase(workload.Deposit("Tb3", tx.Base, "x", 0)); err != nil {
		t.Fatal(err)
	}
	tokN := b.CheckoutReplica("n") // position 3, without v

	// The interior insert: tokK's holder creates v at position 2.
	hk := history.Start(tokK.Origin)
	if _, err := hk.Append(workload.Deposit("Tk", tx.Tentative, "v", 5)); err != nil {
		t.Fatal(err)
	}
	if out, err := b.Merge(tokK, hk); err != nil || !out.Merged {
		t.Fatalf("interior insert = %+v, %v; want merged", out, err)
	}

	hn := history.Start(tokN.Origin)
	if _, err := hn.Append(tx.MustNew("Tn", tx.Tentative, tx.Update("y", expr.Var("v")))); err != nil {
		t.Fatal(err)
	}
	out, err := b.Merge(tokN, hn)
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged || out.Fallback != FallbackOriginInvalid {
		t.Fatalf("outcome %+v, want an origin-invalidated fallback", out)
	}
	if got := b.Master().Get("y"); got != 5 {
		t.Errorf("y = %d, want 5: the serial order reads the inserted v", got)
	}
}

// respOrigin decodes a checkout response's origin.
func respOrigin(t *testing.T, resp wireResp) model.State {
	t.Helper()
	origin, err := codec.UnmarshalState(resp.Origin)
	if err != nil {
		t.Fatalf("checkout origin %x: %v", resp.Origin, err)
	}
	return origin
}

// windowTier is a base tier whose window the tests advance.
type windowTier interface {
	BaseTier
	AdvanceWindow() int
}

// frameTiers builds the tier shapes the checkout-frame tests run on: a plain
// cluster and two shards splitting x from the rest.
func frameTiers() map[string]func(initial model.State, cfg Config) windowTier {
	return map[string]func(model.State, Config) windowTier{
		"cluster": func(initial model.State, cfg Config) windowTier { return NewBaseCluster(initial, cfg) },
		"2shards": func(initial model.State, cfg Config) windowTier {
			if cfg.ShardFn == nil {
				cfg.ShardFn = func(it model.Item) int {
					if it == "x" {
						return 0
					}
					return 1
				}
			}
			return NewShardedBase(initial, 2, cfg)
		},
	}
}

// wireCheckout sends a whole-origin checkout request for mobile to srv and
// returns the raw response.
func wireCheckout(t *testing.T, srv *BaseServer, mobile string) []byte {
	t.Helper()
	payload, err := json.Marshal(wireReq{Kind: reqCheckout, MobileID: mobile})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, lost := srv.ServeFrame(payload)
	if lost {
		t.Fatal("checkout response lost")
	}
	return raw
}

// builtFrame encodes the checkout response for an in-process checkout of
// tier now, field for field as the server encodes one.
func builtFrame(tier BaseTier) []byte {
	ck := tier.CheckoutReplica("probe")
	return mustResp(wireResp{Window: ck.WindowID, Pos: ck.Pos, Origin: codec.MarshalState(ck.Origin)})
}

// decodeResp decodes a raw response envelope.
func decodeResp(t *testing.T, raw []byte) wireResp {
	t.Helper()
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("response %q: %v", raw, err)
	}
	return resp
}

// TestCheckoutFrameSharedInWindow: under Strategy 2, the whole-origin
// checkouts of two mobiles in one window answer byte-identical frames,
// equal to one freshly built from an in-process checkout; after
// AdvanceWindow the next checkout carries the new window and its origin.
func TestCheckoutFrameSharedInWindow(t *testing.T) {
	for name, mk := range frameTiers() {
		t.Run(name, func(t *testing.T) {
			tier := mk(origin(), Config{})
			srv := Serve(tier)
			defer srv.Close()
			first, second := wireCheckout(t, srv, "m1"), wireCheckout(t, srv, "m2")
			if want := builtFrame(tier); !bytes.Equal(first, second) || !bytes.Equal(second, want) {
				t.Fatalf("checkouts in one window answered\n%s\n%s\nwant both %s", first, second, want)
			}
			if err := tier.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 7)); err != nil {
				t.Fatal(err)
			}
			if raw := wireCheckout(t, srv, "m3"); !bytes.Equal(raw, second) {
				t.Errorf("checkout after a base commit in the window answered %s, want the window's frame %s", raw, second)
			}
			tier.AdvanceWindow()
			raw := wireCheckout(t, srv, "m1")
			resp := decodeResp(t, raw)
			if want := tier.Master(); resp.Window != 2 || !respOrigin(t, resp).Equal(want) || len(respOrigin(t, resp)) != len(want) {
				t.Fatalf("checkout after AdvanceWindow answered %+v, want window 2 and origin %s", resp, want)
			}
			if want := builtFrame(tier); !bytes.Equal(raw, want) {
				t.Errorf("checkout after AdvanceWindow answered %s, want %s", raw, want)
			}
		})
	}
}

// TestCheckoutFrameAfterReopen: a durable tier reopened through OpenBase
// (per shard) answers the next checkout with the window and origin it
// recovered, not one served before the restart.
func TestCheckoutFrameAfterReopen(t *testing.T) {
	type durable interface {
		windowTier
		CloseStore() error
	}
	open := map[string]func(dir string) (durable, error){
		"cluster": func(dir string) (durable, error) {
			b, _, err := OpenBase(dir, origin(), Config{})
			return b, err
		},
		"2shards": func(dir string) (durable, error) {
			s, _, err := OpenShardedBase(dir, origin(), 2, Config{})
			return s, err
		},
	}
	for name, openTier := range open {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tier, err := openTier(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := Serve(tier)
			before := wireCheckout(t, srv, "m1")
			if err := tier.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 7)); err != nil {
				t.Fatal(err)
			}
			tier.AdvanceWindow()
			if err := tier.ExecBase(workload.Deposit("Tb2", tx.Base, "y", 3)); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			if err := tier.CloseStore(); err != nil {
				t.Fatal(err)
			}

			if tier, err = openTier(dir); err != nil {
				t.Fatal(err)
			}
			defer tier.CloseStore()
			srv = Serve(tier)
			defer srv.Close()
			raw := wireCheckout(t, srv, "m1")
			resp := decodeResp(t, raw)
			if resp.Window < 2 || respOrigin(t, resp).Get("x") != 107 || bytes.Equal(raw, before) {
				t.Fatalf("checkout after reopen answered %+v, want a later window whose origin holds x = 107", resp)
			}
			if want := builtFrame(tier); !bytes.Equal(raw, want) {
				t.Errorf("checkout after reopen answered %s, want %s", raw, want)
			}
		})
	}
}

// TestCheckoutFrameStrategy1Live: under Strategy 1 a checkout's origin is
// the live master, so a checkout after a base commit carries the new value
// and position.
func TestCheckoutFrameStrategy1Live(t *testing.T) {
	for name, mk := range frameTiers() {
		t.Run(name, func(t *testing.T) {
			tier := mk(origin(), Config{Origin: Strategy1})
			srv := Serve(tier)
			defer srv.Close()
			first := wireCheckout(t, srv, "m1")
			if err := tier.ExecBase(workload.Deposit("Tb1", tx.Base, "y", 7)); err != nil {
				t.Fatal(err)
			}
			raw := wireCheckout(t, srv, "m2")
			resp := decodeResp(t, raw)
			if bytes.Equal(raw, first) || respOrigin(t, resp).Get("y") != 207 {
				t.Fatalf("checkout after a base commit answered %+v, want the master's y = 207", resp)
			}
			if want := builtFrame(tier); !bytes.Equal(raw, want) {
				t.Errorf("checkout answered %s, want %s", raw, want)
			}
			if b, ok := tier.(*BaseCluster); ok && resp.Pos != b.HistoryLen() {
				t.Errorf("checkout position = %d, want %d", resp.Pos, b.HistoryLen())
			}
		})
	}
}

// TestCheckoutFrameAllocIndependentOfItems: once a Strategy 2 window's
// checkout frame is built, a further checkout in the window allocates
// what the request needs, not a copy or an encoding of the replica.
// Regression: every checkout cloned the window origin and encoded it.
func TestCheckoutFrameAllocIndependentOfItems(t *testing.T) {
	for name, mk := range frameTiers() {
		t.Run(name, func(t *testing.T) {
			checkoutAlloc := func(items int) uint64 {
				initial := model.NewState()
				for i := 0; i < items; i++ {
					initial.Set(workload.ItemName(i), 100)
				}
				// Split the items over the shards by their last digit.
				tier := mk(initial, Config{ShardFn: func(it model.Item) int { return int(it[len(it)-1]) % 2 }})
				srv := Serve(tier)
				defer srv.Close()
				wireCheckout(t, srv, "m0")
				least := uint64(math.MaxUint64)
				for i := 1; i <= 3; i++ {
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					wireCheckout(t, srv, fmt.Sprintf("m%d", i))
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				return least
			}
			small, large := checkoutAlloc(64), checkoutAlloc(4096)
			t.Logf("a second checkout allocated %d B on 64 items, %d B on 4096 items", small, large)
			if large > 2*small {
				t.Errorf("a second checkout on 4096 items allocated %d B, more than 2x the %d B on 64 items", large, small)
			}
		})
	}
}

// TestCheckoutFrameBilling: a wire checkout served from the window's frame
// is billed as an in-process checkout is: after N of each, the two tiers'
// cost counters match and each checkout emitted one PhaseCheckout event
// per shard.
func TestCheckoutFrameBilling(t *testing.T) {
	const n = 5
	counts := func(tier BaseTier) cost.Counts {
		if b, ok := tier.(*BaseCluster); ok {
			return b.Counters().Snapshot()
		}
		return tier.(*ShardedBase).Counters()
	}
	for name, mk := range frameTiers() {
		t.Run(name, func(t *testing.T) {
			var events [2]atomic.Int64
			twin := func(k int) windowTier {
				return mk(origin(), Config{Observer: obs.ObserverFunc(func(ev obs.Event) {
					if ev.Phase == obs.PhaseCheckout {
						events[k].Add(1)
					}
				})})
			}
			inproc, wired := twin(0), twin(1)
			srv := Serve(wired)
			defer srv.Close()
			for i := 0; i < n; i++ {
				inproc.CheckoutReplica(fmt.Sprintf("m%d", i))
				wireCheckout(t, srv, fmt.Sprintf("m%d", i))
			}
			perCheckout := int64(1)
			if s, ok := wired.(*ShardedBase); ok {
				perCheckout = int64(s.Shards())
			}
			if got, want := counts(wired), counts(inproc); got != want || got.Messages != n*perCheckout {
				t.Errorf("counters after %d wire checkouts = %+v, want those of %d in-process ones %+v", n, got, n, want)
			}
			if got, want := events[1].Load(), n*perCheckout; got != want || events[0].Load() != want {
				t.Errorf("%d wire checkouts emitted %d checkout events (in-process %d), want %d",
					n, got, events[0].Load(), want)
			}
		})
	}
}
