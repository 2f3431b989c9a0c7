package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tiermerge"
	"tiermerge/internal/wire"
)

// runServe fronts a base tier on a TCP address: the wire protocol on
// -addr, and optionally the /debug/tiermerge introspection endpoints on a
// sidecar HTTP port. It runs until SIGINT/SIGTERM, then drains gracefully
// (in-flight merges finish and write their responses before exit).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7600", "TCP listen address for the wire protocol (port 0 picks a free port)")
		httpAddr = fs.String("http", "", "debug HTTP sidecar address serving /debug/tiermerge, /debug/tiermerge/prometheus and /debug/pprof/ (empty = off)")
		shards   = fs.Int("shards", 1, "base-tier shard count (1 = plain cluster)")
		dropNth  = fs.Int64("drop", 0, "lose every nth mobile-facing response (fault injection; clients retry)")
		items    = fs.Int("items", 16, "database universe size (items item0..itemN-1)")
		initial  = fs.Int64("initial", 100, "initial value of every item")
		maxConns = fs.Int("maxconns", 0, "cap on concurrently served connections (0 = default)")
		data     = fs.String("data", "", "durable data directory: commits persist through the segmented store and survive restarts (empty = in-memory only)")
		ckptIval = fs.Duration("ckptevery", 0, "checkpoint + truncate the durable log at this interval (0 = only on drain; needs -data)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	origin := make(map[tiermerge.Item]tiermerge.Value, *items)
	for i := 0; i < *items; i++ {
		origin[itemName(i)] = tiermerge.Value(*initial)
	}
	metrics := tiermerge.NewMetrics()
	cfg := tiermerge.ClusterConfig{Observer: metrics}

	// A durable tier checkpoints its segment log and releases its engine on
	// drain; both base shapes satisfy the seam.
	type durableTier interface {
		Checkpoint() error
		CloseStore() error
	}
	var (
		tier    tiermerge.BaseTier
		durable durableTier
	)
	switch {
	case *data != "" && *shards > 1:
		sb, recs, err := tiermerge.OpenShardedBase(*data, tiermerge.StateOf(origin), *shards, cfg)
		if err != nil {
			return err
		}
		for k, rec := range recs {
			if rec.Records > 0 {
				fmt.Printf("shard %d recovered: %d records replayed, %d committed%s\n",
					k, rec.Records, rec.Committed, tornNote(rec))
			}
		}
		tier, durable = sb, sb
	case *data != "":
		b, rec, err := tiermerge.OpenBase(*data, tiermerge.StateOf(origin), cfg)
		if err != nil {
			return err
		}
		if rec.Records > 0 {
			fmt.Printf("recovered %s: %d records replayed, %d committed%s\n",
				*data, rec.Records, rec.Committed, tornNote(rec))
		}
		tier, durable = b, b
	case *shards > 1:
		tier = tiermerge.NewShardedBase(tiermerge.StateOf(origin), *shards, cfg)
	default:
		tier = tiermerge.NewBaseCluster(tiermerge.StateOf(origin), cfg)
	}
	if durable != nil {
		defer durable.CloseStore()
	}
	srv := tiermerge.Serve(tier,
		tiermerge.WithDropEveryNth(*dropNth),
		tiermerge.WithObserver(metrics),
	)
	defer srv.Close()

	ws := wire.NewServer(srv, wire.ServerConfig{MaxConns: *maxConns})
	bound, err := ws.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", bound)

	var debugLn net.Listener
	if *httpAddr != "" {
		debugLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			ws.Close()
			return err
		}
		fmt.Printf("debug http on %s\n", debugLn.Addr())
		go http.Serve(debugLn, srv.DebugHandler())
	}

	var (
		stopCkpt chan struct{}
		ckptDone chan struct{}
		ckptFail chan error
	)
	if durable != nil && *ckptIval > 0 {
		stopCkpt = make(chan struct{})
		ckptDone = make(chan struct{})
		ckptFail = make(chan error, 1)
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptIval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := durable.Checkpoint(); err != nil {
						// A failed rotation wedges the journal: no commit
						// can be acknowledged anymore. Drain and exit so a
						// restart recovers the intact old generation,
						// instead of serving errors indefinitely.
						ckptFail <- err
						return
					}
				case <-stopCkpt:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var ckptErr error
	select {
	case s := <-sig:
		fmt.Printf("received %s, draining\n", s)
	case ckptErr = <-ckptFail:
		fmt.Fprintf(os.Stderr, "checkpoint failed, draining: %v\n", ckptErr)
	}

	if stopCkpt != nil {
		close(stopCkpt)
		// Wait out an in-flight ticker checkpoint: the drain checkpoint
		// below must not run concurrently with it (Checkpoint serializes
		// internally, but the drain rotation must also be the *last* one,
		// so the process exits with a freshly truncated log).
		<-ckptDone
	}
	if debugLn != nil {
		debugLn.Close()
	}
	if err := ws.Close(); err != nil {
		return err
	}
	if durable != nil && ckptErr == nil {
		// Final rotation: restart recovery replays one checkpoint and an
		// empty tail instead of the whole run.
		if err := durable.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("checkpointed %s\n", *data)
	}
	frames, in, out, drops := ws.Stats()
	fmt.Printf("served            %d frames, %d bytes in, %d bytes out", frames, in, out)
	if drops > 0 {
		fmt.Printf(", %d responses dropped", drops)
	}
	fmt.Println()
	return ckptErr
}

// itemName maps an index into the serve universe ("item0", "item1", ...);
// the client subcommand targets the same names.
func itemName(i int) tiermerge.Item {
	return tiermerge.Item(fmt.Sprintf("item%d", i))
}

// tornNote reports a torn final journal record a recovery dropped: the
// only crash damage a journal can carry.
func tornNote(rec *tiermerge.WALRecovery) string {
	if !rec.TornTail {
		return ""
	}
	return fmt.Sprintf(", torn tail at record %d dropped", rec.TornRecord)
}
