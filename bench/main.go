// Command bench is tiermerge's reconnect benchmark: five workloads driven
// by two closed-loop clients over loopback TCP into the durable base tier,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. README.md explains the workloads, the metrics and how to
// compare two results; BENCHMARK.json at the repository root is the
// contract it is run under.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of output is the result JSON
//	bash bench/run.sh [-seed N] [-runs R] [-quick]
//	    every workload, untraced then traced: prints every metric, runs the
//	    checks, writes bench/out/result-*.json, appends bench/history.jsonl
//	bash bench/run.sh -agree a.json b.json
//	    compares two result files against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the result JSON as the last line")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "seconds of program time one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke run: 64 reconnects per pass instead of -seconds, no history row")
		runs     = flag.Int("runs", 1, "full run: repetitions of every workload, so a result file carries its own spread")
		agree    = flag.Bool("agree", false, "compare two result files: -agree a.json b.json")
		outPath  = flag.String("out", "", "full run: result file (default bench/out/result-<time>.json)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *quick, *runs, *agree, *outPath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, quick bool, runs int, agree bool, outPath string, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	bs, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if agree {
		if len(args) != 2 {
			return fmt.Errorf("-agree takes two result files")
		}
		return agreeFiles(bs, args[0], args[1], os.Stdout)
	}
	if seconds == 0 {
		seconds = float64(bs.RunSeconds)
	}
	benchDir := filepath.Join(root, bs.Paths[0])
	o := options{seed: seed, seconds: seconds, quick: quick,
		root:     filepath.Join(root, ".bench_build", "data"),
		traceDir: filepath.Join(benchDir, "out")}
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return err
	}

	if workload != "" {
		sp := specByName(workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		out, err := runOne(bs, sp, o, trace)
		if err != nil {
			return err
		}
		printOutcome(os.Stdout, bs, sp, out, trace)
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	// Full run: every workload, both passes.
	set := &resultSet{Stamp: newStamp(o)}
	fmt.Printf("host: %s, GOMAXPROCS %d of %d CPUs, commit %s, seed %d, %.0f s per run, data on %s\n",
		set.Stamp.GoVersion, set.Stamp.GOMAXPROCS, set.Stamp.NumCPU, set.Stamp.Commit, seed, seconds, set.Stamp.DataFS)
	fmt.Printf("flush policy: %s\n", flushPolicy)
	fmt.Printf("load: closed loop, %d client goroutines, one pooled TCP connection each\n", clients)
	ok := true
	for _, sp := range specs {
		for r := 0; r < runs; r++ {
			for _, tr := range []int{0, 1} {
				out, err := runOne(bs, sp, o, tr)
				if err != nil {
					return fmt.Errorf("%s: %w", sp.Name, err)
				}
				printOutcome(os.Stdout, bs, sp, out, tr)
				ok = ok && out.Correct
				set.Runs = append(set.Runs, resultRun{Workload: sp.Name, Trace: tr, outcome: *out})
			}
		}
	}
	if outPath == "" {
		outPath = filepath.Join(benchDir, "out", "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	if err := set.write(outPath); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", outPath)
	if !quick {
		hist := filepath.Join(benchDir, "history.jsonl")
		if err := set.appendHistory(hist); err != nil {
			return err
		}
		fmt.Printf("history row appended to %s\n", hist)
	}
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runOne is one run of one workload, checked against BENCHMARK.json: it
// must report exactly the metrics the file lists for its mode.
func runOne(bs *benchSpec, sp *spec, o options, trace int) (*outcome, error) {
	var (
		out  *outcome
		err  error
		want = bs.EndToEnd
	)
	if trace == 1 {
		want = bs.PerLayer
		out, err = runTraced(sp, o)
	} else {
		out, err = runUntraced(sp, o)
	}
	if err != nil {
		return nil, err
	}
	if err := matches(out.Metrics, want); err != nil {
		return nil, err
	}
	return out, nil
}
