package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// benchSpec is BENCHMARK.json: the contract between this benchmark and
// whoever runs it. The workload parameters are not in it (the contract
// allows a workload only a name and a why); they are the specs table.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; absent on per-layer metrics.
	Bound *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json: the root of the checkout.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = up
	}
}

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := bs.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// validate checks the file against the contract and against the harness:
// names and units well formed and unique, every end-to-end metric with a
// direction and a bound of at most a quarter, setup_s present, and the
// workloads exactly the harness's specs, in order.
func (bs *benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is not made of letters, digits, '_', '.', '-'", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	if bs.RunSeconds < 1 || bs.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", bs.RunSeconds)
	}
	if len(bs.Workloads) != len(specs) {
		return fmt.Errorf("%d workloads, the harness has %d", len(bs.Workloads), len(specs))
	}
	for i, w := range bs.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Name != specs[i].Name {
			return fmt.Errorf("workload %d is %q, the harness has %q", i, w.Name, specs[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
	}
	metric := func(kind string, m specMetric, bounded bool) error {
		if err := name(kind+" metric", m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher, not %q", m.Name, m.Better)
		}
		switch {
		case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("metric %q: needs a bound in (0, 0.25]", m.Name)
		case !bounded && m.Bound != nil:
			return fmt.Errorf("metric %q: a per-layer metric has no bound", m.Name)
		}
		return nil
	}
	hasSetup := false
	for _, m := range bs.EndToEnd {
		if err := metric("end-to-end", m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	for _, m := range bs.PerLayer {
		if err := metric("per-layer", m, false); err != nil {
			return err
		}
	}
	if len(bs.EndToEnd) < 1 || len(bs.EndToEnd) > 16 || len(bs.PerLayer) < 1 || len(bs.PerLayer) > 128 {
		return fmt.Errorf("metric counts outside the contract: %d end-to-end, %d per-layer", len(bs.EndToEnd), len(bs.PerLayer))
	}
	return nil
}

// matches checks that a run reported exactly the metrics want lists, each
// with its unit.
func matches(got map[string]metric, want []specMetric) error {
	listed := make(map[string]bool, len(want))
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %q was not reported", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %q reported in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			return fmt.Errorf("metric %q is reported but not in BENCHMARK.json", name)
		}
	}
	return nil
}
