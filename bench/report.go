package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// resultRun is one run's outcome inside a result file.
type resultRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	outcome
}

// resultSet is a result file: one invocation's host stamp and runs.
type resultSet struct {
	Stamp stamp       `json:"stamp"`
	Runs  []resultRun `json:"runs"`
}

func (s *resultSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values returns every run's value of one metric on one workload.
func (s *resultSet) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// historyRow is one line of history.jsonl: the stamp, and per workload the
// median over the invocation's runs of every metric.
type historyRow struct {
	Stamp     stamp                         `json:"stamp"`
	Correct   bool                          `json:"correct"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// appendHistory adds the set's row to the append-only history file.
func (s *resultSet) appendHistory(path string) error {
	row := historyRow{Stamp: s.Stamp, Correct: true, Workloads: map[string]map[string]float64{}}
	for _, r := range s.Runs {
		row.Correct = row.Correct && r.Correct
		if row.Workloads[r.Workload] == nil {
			row.Workloads[r.Workload] = map[string]float64{}
		}
		for name := range r.Metrics {
			row.Workloads[r.Workload][name] = median(s.values(r.Workload, name))
		}
	}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printOutcome prints one run for people: every metric by name with its
// unit, the sample counts behind the percentiles, and the checks.
func printOutcome(w io.Writer, bs *benchSpec, sp *spec, out *outcome, trace int) {
	mode, list := "untraced, end-to-end", bs.EndToEnd
	if trace == 1 {
		mode, list = "traced, per-layer", bs.PerLayer
	}
	fmt.Fprintf(w, "\n== %s (%s): %d shards, M=%d T=%d B=%d/%d W=%d; %s\n",
		sp.Name, mode, sp.Shards, sp.Mobiles, sp.Tentative, sp.BaseNum, sp.BaseDen, sp.Window, sp.Profile)
	for _, m := range list {
		v := out.Metrics[m.Name]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if m.Bound != nil {
			fmt.Fprintf(w, " (%s is better, bound %.0f%%)", m.Better, 100**m.Bound)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  samples: %d reconnects, %d base transactions; highest percentile with >= %d samples beyond it: p%g / p%g\n",
		out.reconnectSamples, out.baseSamples, minTail,
		highestPercentile(out.reconnectSamples), highestPercentile(out.baseSamples))
	if trace == 0 {
		if highestPercentile(out.reconnectSamples) < 95 || highestPercentile(out.baseSamples) < 95 {
			fmt.Fprintf(w, "  NOTE a p95 above rests on fewer than %d samples beyond it\n", minTail)
		}
		fmt.Fprintf(w, "  ExecBase: p50 %.4f ms, p95 %.4f ms, %.0f%% of the clients' time (reported per layer, as replica.execbase_*)\n",
			out.baseP50, out.baseP95, 100*out.baseShare)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	verdict := "ok"
	if !out.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  checks: %s (%d operations attempted, %d failed)\n", verdict, out.Attempted, out.Failed)
}
