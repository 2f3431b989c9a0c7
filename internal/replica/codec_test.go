package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tiermerge/internal/codec"
	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// TestCheckpointLargerThan16MiBReopens: a checkpoint segment is one
// checkout record holding the whole window origin, so a large base writes
// one large record. Regression: the journal scanner capped a record at
// 16 MiB, and a base of 17 000 items with 1 KB names could checkpoint but
// not reopen ("checkpoint segment: wal: corrupt log").
func TestCheckpointLargerThan16MiBReopens(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 17 MB checkpoint")
	}
	initial := make(model.State, 17000)
	for i := 0; i < 17000; i++ {
		initial[model.Item(fmt.Sprintf("%07d-%s", i, strings.Repeat("n", 1000)))] = model.Value(i)
	}
	dir := t.TempDir()
	b, _, err := OpenBase(dir, initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if size := b.LogSize(); size <= 16<<20 {
		t.Fatalf("log holds %d bytes, want a checkpoint past 16 MiB", size)
	}
	b2, _, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(initial) {
		t.Error("reopened master differs from the checkpointed one")
	}
}

// TestBitRotIsNeverAdopted flips each byte of every record of a checkpoint
// and a tail segment in turn, by its low bit and by all its bits. Every
// frame is complete, so each flip must make OpenBase refuse the log with
// wal.ErrCorrupt — never reopen with a different master. Regression: a
// flip that still parsed (x=100 edited to x=900 in a checkpoint's origin,
// which no logged transaction reads back) was adopted as the master
// without an error.
func TestBitRotIsNeverAdopted(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, model.StateOf(map[model.Item]model.Value{"x": 100, "y": 5}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow() // the checkpoint holds the window origin alone
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "x", 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseStore(); err != nil {
		t.Fatal(err)
	}
	gen, ckpt, tail, err := store.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{"checkpoint", "tail"} {
		image := ckpt
		if seg == "tail" {
			image = tail
		}
		for bit := 0; bit < 2*len(image); bit++ {
			i, mask := bit/2, byte(0x01)
			if bit%2 == 1 {
				mask = 0xff
			}
			rotted := bytes.Clone(image)
			rotted[i] ^= mask
			c, t2 := ckpt, tail
			if seg == "tail" {
				t2 = rotted
			} else {
				c = rotted
			}
			d := filepath.Join(t.TempDir(), "rot")
			if err := store.WriteSegments(d, gen, c, t2); err != nil {
				t.Fatal(err)
			}
			got, _, err := OpenBase(d, nil, Config{})
			if err == nil {
				master := got.Master()
				got.CloseStore()
				t.Fatalf("%s byte %d ^ %#02x: reopened with master %s, want wal.ErrCorrupt", seg, i, mask, master)
			}
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("%s byte %d ^ %#02x: %v, want wal.ErrCorrupt", seg, i, mask, err)
			}
		}
	}
}

// TestServeFrameRefusesDeepCode: a reconnect whose journal carries an
// expression 100 000 levels deep gets an error envelope — the decoder
// stops at codec.MaxDepth instead of recursing — and the server goes on
// serving.
func TestServeFrameRefusesDeepCode(t *testing.T) {
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"x": 1}), Config{})
	srv := Serve(b)
	defer srv.Close()

	encode := func(e expr.Expr) []byte {
		enc := codec.NewEncoder(nil)
		expr.EncodeExpr(enc, e)
		out, err := enc.Result()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// A binary node's encoding is its tag, then its operands': peel the
	// two leaves off x+1 and repeat what is left.
	leaf := encode(expr.Const(1))
	node := encode(expr.Add(expr.Const(1), expr.Const(1)))
	node = node[:len(node)-2*len(leaf)]
	const depth = 100000
	deep := append(bytes.Repeat(node, depth), bytes.Repeat(leaf, depth+1)...)

	placeholder := expr.Const(424242)
	code, err := tx.MarshalTransaction(tx.MustNew("Tm1", tx.Tentative, tx.Update("x", placeholder)))
	if err != nil {
		t.Fatal(err)
	}
	code = bytes.Replace(code, encode(placeholder), deep, 1)
	var journal []byte
	for i, r := range []wal.Record{
		{Kind: wal.KindCheckout, WindowID: 1, Origin: map[model.Item]model.Value{"x": 1}},
		{Kind: wal.KindCommit, Txns: []wal.Txn{{Code: code}}},
	} {
		r.Seq = int64(i) + 1
		if journal, err = wal.AppendRecord(journal, r); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := json.Marshal(wireReq{Kind: reqMerge, MobileID: "m1", Seq: 1, Epoch: "e1", Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, _ := srv.ServeFrame(payload)
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "deeper than") {
		t.Fatalf("deep code answered %q, want a nesting error", resp.Err)
	}

	c, err := Dial("m2", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(workload.Deposit("Tm2", tx.Tentative, "x", 4)); err != nil {
		t.Fatal(err)
	}
	if out, err := c.ConnectMerge(); err != nil || !out.Merged {
		t.Fatalf("merge after the refused frame: %+v, %v", out, err)
	}
	if got := b.Master().Get("x"); got != 5 {
		t.Errorf("x = %d, want 5", got)
	}
}
