// Command tiermerge runs a two-tier replication scenario from the command
// line and prints the reconciliation report: how much tentative work the
// merging protocol saved, what was backed out and re-executed, and the
// Section 7.1 cost breakdown.
//
// The trace subcommand runs the same scenario under a merge tracer and
// prints a per-reconnect phase breakdown — where each merge spent its
// time, waiting for the cluster mutexes included, and what the merge
// decided. The -metrics flag (both modes) writes a
// Prometheus-text metrics snapshot after the run.
//
// The serve and client subcommands run the same mobile/base split as
// separate processes over the TCP wire protocol (docs/WIRE.md): serve
// fronts a base tier on a TCP address (with an optional debug HTTP
// sidecar), client drives a fleet of mobiles against it and can assert
// master convergence.
//
// Examples:
//
//	tiermerge -mobiles 8 -rounds 3 -txns 6
//	tiermerge -protocol reprocess -mobiles 8
//	tiermerge -origin 1 -mobiles 6            # Strategy 1 anomaly demo
//	tiermerge -rewriter canfollow -items 16   # high-conflict, Algorithm 1
//	tiermerge trace -mobiles 2 -rounds 2      # per-merge phase breakdowns
//	tiermerge -metrics metrics.prom           # dump the metric registry
//	tiermerge serve -addr 127.0.0.1:7600 -http 127.0.0.1:7601
//	tiermerge client -addr 127.0.0.1:7600 -mobiles 8 -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tiermerge"
	"tiermerge/internal/graph"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:])
	case len(args) > 0 && args[0] == "client":
		err = runClient(args[1:])
	case len(args) > 0 && args[0] == "trace":
		err = run(args[1:], true, os.Stdout)
	default:
		err = run(args, false, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tiermerge:", err)
		os.Exit(1)
	}
}

// run runs one scenario and writes its report to out.
func run(args []string, traceMode bool, out io.Writer) error {
	fs := flag.NewFlagSet("tiermerge", flag.ExitOnError)
	var (
		seed       = fs.Int64("seed", 1, "workload seed")
		mobiles    = fs.Int("mobiles", 4, "number of mobile nodes")
		rounds     = fs.Int("rounds", 3, "disconnect/connect cycles per mobile")
		txns       = fs.Int("txns", 5, "tentative transactions per round")
		baseTxns   = fs.Int("basetxns", 3, "base transactions per round")
		items      = fs.Int("items", 64, "database universe size")
		pcommut    = fs.Float64("pcommut", 0.6, "fraction of commutative (additive) transactions")
		protocol   = fs.String("protocol", "merge", "reconciliation protocol: merge | reprocess")
		rewriter   = fs.String("rewriter", "canprecede", "rewriting algorithm: closure | canfollow | canfollowbw | canprecede | cbt")
		strategy   = fs.String("strategy", "two-cycle", "back-out strategy: two-cycle | greedy-cost | greedy-degree | exhaustive | all-cyclic")
		origin     = fs.Int("origin", 2, "tentative-history origin strategy: 1 | 2")
		window     = fs.Int("window", 0, "advance the time window every N rounds (0 = never)")
		baseNodes  = fs.Int("basenodes", 1, "base-tier replica count; prices only the lazy propagation of each commit to the other replicas")
		concurrent = fs.Bool("concurrent", false, "run mobiles as goroutines")
		messages   = fs.Bool("messages", false, "run mobiles as goroutine clients of a base server, every reconnect a serialized round trip")
		dropNth    = fs.Int64("drop", 0, "with -messages only: lose every nth mobile-facing response (retries + dedup keep merges exactly-once)")
		pcrash     = fs.Float64("pcrash", 0, "per-round mobile crash probability (recovered from journals)")
		pskip      = fs.Float64("pskip", 0, "per-round probability a mobile stays offline (longer histories)")
		acceptance = fs.String("acceptance", "", "re-execution acceptance: '' (all) | same-writes | drift:<n>")
		hotItems   = fs.Int("hotitems", 0, "size of the hot item set (0 = uniform access)")
		phot       = fs.Float64("phot", 0, "probability an access hits the hot set")
		metricsOut = fs.String("metrics", "", "write a Prometheus-text metrics snapshot to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := tiermerge.Scenario{
		Seed:              *seed,
		Mobiles:           *mobiles,
		Rounds:            *rounds,
		TxnsPerRound:      *txns,
		BaseTxnsPerRound:  *baseTxns,
		Items:             *items,
		PCommutative:      *pcommut,
		BaseNodes:         *baseNodes,
		WindowEveryRounds: *window,
		DropEveryNth:      *dropNth,
		PCrash:            *pcrash,
		PSkipConnect:      *pskip,
		HotItems:          *hotItems,
		PHot:              *phot,
	}
	switch {
	case *concurrent && *messages:
		return fmt.Errorf("%w: -concurrent and -messages are exclusive", tiermerge.ErrBadClusterConfig)
	case *concurrent:
		sc.Mode = tiermerge.ConcurrentMode
	case *messages:
		sc.Mode = tiermerge.MessagesMode
	}
	switch {
	case *acceptance == "":
	case *acceptance == "same-writes":
		sc.Acceptance = tiermerge.AcceptSameWrites
	case strings.HasPrefix(*acceptance, "drift:"):
		n, err := strconv.ParseInt(strings.TrimPrefix(*acceptance, "drift:"), 10, 64)
		if err != nil {
			return fmt.Errorf("bad -acceptance %q: %v", *acceptance, err)
		}
		sc.Acceptance = tiermerge.AcceptWithinDrift(tiermerge.Value(n))
	default:
		return fmt.Errorf("unknown acceptance %q", *acceptance)
	}

	switch *protocol {
	case "merge":
		sc.Protocol = tiermerge.MergingProtocol
	case "reprocess":
		sc.Protocol = tiermerge.ReprocessingProtocol
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	switch *rewriter {
	case "closure":
		sc.MergeOptions.Rewriter = tiermerge.RewriteClosure
	case "canfollow":
		sc.MergeOptions.Rewriter = tiermerge.RewriteCanFollow
	case "canprecede":
		sc.MergeOptions.Rewriter = tiermerge.RewriteCanPrecede
	case "canfollowbw":
		sc.MergeOptions.Rewriter = tiermerge.RewriteCanFollowBW
	case "cbt":
		sc.MergeOptions.Rewriter = tiermerge.RewriteCBT
	default:
		return fmt.Errorf("unknown rewriter %q", *rewriter)
	}

	switch *strategy {
	case "two-cycle":
		sc.MergeOptions.Strategy = graph.TwoCycle{}
	case "greedy-cost":
		sc.MergeOptions.Strategy = graph.GreedyCost{}
	case "greedy-degree":
		sc.MergeOptions.Strategy = graph.GreedyDegree{}
	case "exhaustive":
		sc.MergeOptions.Strategy = graph.Exhaustive{}
	case "all-cyclic":
		sc.MergeOptions.Strategy = graph.AllCyclic{}
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	switch *origin {
	case 1:
		sc.Origin = tiermerge.Strategy1
	case 2:
		sc.Origin = tiermerge.Strategy2
	default:
		return fmt.Errorf("origin must be 1 or 2")
	}

	// Observability: trace mode always records events; a -metrics dump
	// additionally folds them into a registry.
	var (
		tracer  *tiermerge.MergeTracer
		metrics *tiermerge.Metrics
	)
	if traceMode {
		tracer = tiermerge.NewMergeTracer()
	}
	if *metricsOut != "" {
		metrics = tiermerge.NewMetrics()
	}
	var observers []tiermerge.Observer
	if tracer != nil {
		observers = append(observers, tracer)
	}
	if metrics != nil {
		observers = append(observers, metrics)
	}
	sc.Observer = tiermerge.MultiObserver(observers...)

	res, err := tiermerge.RunScenario(sc)
	if err != nil {
		return err
	}

	if tracer != nil {
		for _, mt := range tracer.Merges() {
			mt.Format(out)
		}
		fmt.Fprintln(out)
	}
	if metrics != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := metrics.Registry().Snapshot().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics snapshot   %s\n", *metricsOut)
	}

	c := res.Counts
	fmt.Fprintf(out, "protocol          %s (rewriter %s, strategy %s, origin strategy-%d)\n",
		*protocol, *rewriter, *strategy, *origin)
	fmt.Fprintf(out, "fleet             %d mobiles x %d rounds x %d txns (%d tentative total)\n",
		sc.Mobiles, sc.Rounds, sc.TxnsPerRound, res.TentativeRun)
	fmt.Fprintf(out, "saved             %d (%.1f%%)\n", c.TxnsSaved,
		pct(c.TxnsSaved, res.TentativeRun))
	fmt.Fprintf(out, "backed out        %d\n", c.TxnsBackedOut)
	fmt.Fprintf(out, "reprocessed       %d (failed: %d)\n", c.TxnsReprocessed, res.FailedReexecutions)
	fmt.Fprintf(out, "merges            %d (fallbacks: %d)\n", c.MergesPerformed, c.MergeFallbacks)
	if res.Crashes > 0 {
		fmt.Fprintf(out, "crashes           %d (recovered from journals)\n", res.Crashes)
	}
	fmt.Fprintf(out, "communication     %d messages, %d bytes\n", c.Messages, c.Bytes)
	fmt.Fprintf(out, "base tier         %d queries, %d forced writes, %d locks\n",
		c.BaseQueries, c.BaseForcedWrites, c.BaseLocks)
	fmt.Fprintf(out, "weighted cost     %s\n", res.Cost)
	if res.WireRequests > 0 {
		fmt.Fprintf(out, "wire transport    %d requests, %d real bytes\n", res.WireRequests, res.WireBytes)
	}
	return nil
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
