package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench-JSON mode: parse `go test -bench` output from stdin and persist
// one BENCH_<ID>.json per experiment-tagged benchmark (BenchmarkE16...,
// BenchmarkE17..., BenchmarkE18...) so each PR's perf numbers land in the
// repo instead of a terminal scrollback. scripts/bench.sh is the driver.

// benchResult is one benchmark line, normalized.
type benchResult struct {
	// Name is the sub-benchmark path without the Benchmark prefix and
	// GOMAXPROCS suffix, e.g. "E16ShardedFleet/shards=4/cross=0%".
	Name string `json:"name"`
	// Runs is the measured iteration count (b.N).
	Runs int64 `json:"runs"`
	// NsPerOp is the headline ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics carries every other reported unit (merges/s, B/op, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the persisted shape of one BENCH_<ID>.json.
type benchFile struct {
	Experiment string             `json:"experiment"`
	Command    string             `json:"command"`
	Results    []benchResult      `json:"results"`
	Summary    map[string]float64 `json:"summary,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// experiment IDs whose benchmarks persist; anything else on stdin passes
// through untouched.
var benchIDs = regexp.MustCompile(`^Benchmark(E\d+)`)

// runBenchJSON reads go-bench output from r, echoes it to stderr so the
// caller still sees the run, and writes BENCH_<ID>.json files under dir.
func runBenchJSON(r io.Reader, dir string) int {
	files := map[string]*benchFile{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		id := benchIDs.FindStringSubmatch(m[1])
		if id == nil {
			continue
		}
		runs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{
			Name:    strings.TrimPrefix(m[1], "Benchmark"),
			Runs:    runs,
			Metrics: map[string]float64{},
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[fields[i+1]] = v
			}
		}
		f := files[id[1]]
		if f == nil {
			f = &benchFile{
				Experiment: id[1],
				Command:    "go test -run '^$' -bench Benchmark" + id[1] + " -benchmem .",
			}
			files[id[1]] = f
		}
		f.Results = append(f.Results, res)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: read: %v\n", err)
		return 1
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no experiment benchmark lines on stdin")
		return 1
	}
	ids := make([]string, 0, len(files))
	for id := range files {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		f := files[id]
		if id == "E16" {
			f.Summary = e16Summary(f.Results)
		}
		if id == "E17" {
			f.Summary = e17Summary(f.Results)
		}
		if id == "E18" {
			f.Summary = e18Summary(f.Results)
		}
		if id == "E19" {
			f.Summary = e19Summary(f.Results)
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		path := filepath.Join(dir, "BENCH_"+id+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d results)\n", path, len(f.Results))
	}
	return 0
}

// e17Summary derives the E17 headline: what running the fleet over real
// loopback TCP costs relative to the in-process channel transport — the
// measured on-wire bytes per run, the framing overhead and the wall-clock
// slowdown.
func e17Summary(results []benchResult) map[string]float64 {
	byMode := map[string]benchResult{}
	for _, r := range results {
		if i := strings.Index(r.Name, "transport="); i >= 0 {
			byMode[r.Name[i+len("transport="):]] = r
		}
	}
	tcp, okT := byMode["tcp"]
	ch, okC := byMode["chan"]
	if !okT {
		return nil
	}
	sum := map[string]float64{
		"tcp_wire_bytes_per_run":    tcp.Metrics["wire_B/op"],
		"tcp_payload_bytes_per_run": tcp.Metrics["payload_B/op"],
		"tcp_framing_overhead_pct":  tcp.Metrics["overhead_%"],
	}
	if okC && ch.NsPerOp > 0 {
		sum["tcp_vs_chan_slowdown"] = tcp.NsPerOp / ch.NsPerOp
	}
	return sum
}

// e18Summary derives the E18 headline: what merging commutative
// increments as first-class deltas saves over the value-write baseline on
// the contended counter fleet — back-outs avoided, graph edges elided,
// increments folded, and the wall-clock speedup.
func e18Summary(results []benchResult) map[string]float64 {
	byArm := map[string]benchResult{}
	for _, r := range results {
		if i := strings.Index(r.Name, "arm="); i >= 0 {
			byArm[r.Name[i+len("arm="):]] = r
		}
	}
	delta, okD := byArm["delta"]
	value, okV := byArm["value"]
	if !okD || !okV {
		return nil
	}
	sum := map[string]float64{
		"delta_backouts_per_run": delta.Metrics["backouts/op"],
		"value_backouts_per_run": value.Metrics["backouts/op"],
		"edges_elided_per_run":   delta.Metrics["elided/op"],
		"deltas_folded_per_run":  delta.Metrics["folded/op"],
	}
	if v := value.Metrics["graph_ops/op"]; v > 0 {
		sum["graph_ops_reduction"] = 1 - delta.Metrics["graph_ops/op"]/v
	}
	if delta.NsPerOp > 0 {
		sum["delta_vs_value_speedup"] = value.NsPerOp / delta.NsPerOp
	}
	return sum
}

// e19Summary derives the E19 headline: what durability costs on the
// commit path (disk vs memory backend slowdown from sync-before-ack) and
// what checkpoint + truncation buy back at restart — the recovery speedup
// and the log-size reduction of checkpoint+tail over a full-history
// replay.
func e19Summary(results []benchResult) map[string]float64 {
	byArm := map[string]benchResult{}
	for _, r := range results {
		for _, key := range []string{"backend=", "recover="} {
			if i := strings.Index(r.Name, key); i >= 0 {
				byArm[r.Name[i:]] = r
			}
		}
	}
	sum := map[string]float64{}
	mem, okM := byArm["backend=mem"]
	disk, okD := byArm["backend=disk"]
	if okM && okD && mem.NsPerOp > 0 {
		sum["disk_vs_mem_slowdown"] = disk.NsPerOp / mem.NsPerOp
		sum["disk_log_bytes_per_run"] = disk.Metrics["log_B/op"]
	}
	full, okF := byArm["recover=full"]
	ckpt, okC := byArm["recover=ckpt"]
	if okF && okC {
		sum["full_replay_records"] = full.Metrics["replayed/op"]
		sum["ckpt_replay_records"] = ckpt.Metrics["replayed/op"]
		if ckpt.NsPerOp > 0 {
			sum["ckpt_vs_full_recovery_speedup"] = full.NsPerOp / ckpt.NsPerOp
		}
		if full.Metrics["log_B"] > 0 {
			sum["log_size_reduction"] = 1 - ckpt.Metrics["log_B"]/full.Metrics["log_B"]
		}
	}
	if len(sum) == 0 {
		return nil
	}
	return sum
}

// e16Summary derives the E16 headline: disjoint-fleet merge throughput
// speedup of every shard count over the single-shard baseline. The
// acceptance bar is speedup_shards_4 >= 3.
func e16Summary(results []benchResult) map[string]float64 {
	tput := map[string]float64{}
	for _, r := range results {
		if strings.HasSuffix(r.Name, "/cross=0%") {
			if i := strings.Index(r.Name, "shards="); i >= 0 {
				key := strings.TrimSuffix(r.Name[i:], "/cross=0%")
				tput[key] = r.Metrics["merges/s"]
			}
		}
	}
	base, ok := tput["shards=1"]
	if !ok || base == 0 {
		return nil
	}
	sum := map[string]float64{}
	for key, v := range tput {
		n := strings.TrimPrefix(key, "shards=")
		sum["disjoint_merges_per_s_"+n+"_shards"] = v
		sum["speedup_shards_"+n] = v / base
	}
	return sum
}
