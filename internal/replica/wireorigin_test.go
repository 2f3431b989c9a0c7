package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiermerge/internal/expr"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// Tests for the origin a reconnect moves over the wire: the merge payload
// carries Hm's footprint of the origin and the base checks it against the
// state at the token; a re-checkout into the window the client holds carries
// no origin.

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
// its merge and the re-checkout after it — moves and allocates what Hm
// touches, not the replica. Regression: the merge payload and the
// re-checkout response each carried the whole origin.
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
// and calls after (when set) once each response is back.
type recordingTransport struct {
	Transport
	after func(req wireReq)

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
		r.after(req)
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

// TestRecheckoutProtocol: the checkout after a merged Strategy 2 reconnect
// into the window the client holds carries no origin, and every other
// checkout — a moved window, a fallback, Strategy 1, the first dial —
// carries the whole origin; the merge frame carries Hm's footprint of it.
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
			if !out.Merged || req.Kind != reqCheckout || req.Window != 1 || !resp.Same || resp.Window != 1 {
				t.Fatalf("outcome %+v, checkout %+v answered %+v; want a merged reconnect and a same-window answer", out, req, resp)
			}
			if _, ok := fields["origin"]; ok {
				t.Errorf("same-window answer carries an origin: %v", fields)
			}
			if got := e.c.Local(); !got.Equal(origin()) {
				t.Errorf("local = %s after the re-checkout, want the window origin %s", got, origin())
			}
		}},
		{"window-advanced", Strategy2, func(t *testing.T, e *env) {
			if err := e.b.ExecBase(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
				t.Fatal(err)
			}
			e.rt.after = func(req wireReq) {
				if req.Kind == reqMerge {
					e.b.AdvanceWindow()
				}
			}
		}, func(t *testing.T, e *env, out *ConnectOutcome) {
			req, resp, _ := e.rt.last(t, 0)
			want := e.b.Master()
			if !out.Merged || req.Window != 1 || resp.Same || resp.Window != 2 || !model.State(resp.Origin).Equal(want) || len(resp.Origin) != len(want) {
				t.Fatalf("outcome %+v, checkout %+v answered %+v; want the whole new origin %s", out, req, resp, want)
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
			req, resp, _ := e.rt.last(t, 0)
			if out.Merged || out.Fallback != FallbackOriginInvalid || req.Window != 0 || resp.Same || len(resp.Origin) != len(origin()) {
				t.Fatalf("outcome %+v, checkout %+v answered %+v; want a fallback and the whole origin", out, req, resp)
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
			req, resp, _ := e.rt.last(t, 0)
			want := e.b.Master()
			if !out.Merged || req.Window != 1 || resp.Same || !model.State(resp.Origin).Equal(want) || len(resp.Origin) != len(want) {
				t.Fatalf("outcome %+v, checkout %+v answered %+v; want the whole master %s", out, req, resp, want)
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
			if req.Kind != reqCheckout || req.Window != 0 || resp.Same || !model.State(resp.Origin).Equal(origin()) || len(resp.Origin) != len(origin()) {
				t.Fatalf("first checkout %+v answered %s; want the whole origin", req, raw)
			}
		}},
		{"footprint-payload", Strategy2, nil, func(t *testing.T, e *env, _ *ConnectOutcome) {
			req, _, _ := e.rt.last(t, 1)
			res, err := wal.Scan(bytes.NewReader(req.Journal), wal.Strict)
			if err != nil || len(res.Records) == 0 || res.Records[0].Kind != wal.KindCheckout {
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
