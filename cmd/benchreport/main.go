// Command benchreport regenerates every experiment of the reproduction
// suite (E0..E19, see DESIGN.md) and prints the tables EXPERIMENTS.md
// records. It exits non-zero if any paper expectation fails. Throughput
// figures come from `go test -run '^$' -bench BenchmarkE1x .`; the
// performance gate is the reconnect benchmark in bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tiermerge/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E8); empty = all")
	md := flag.Bool("md", false, "emit GitHub-flavored markdown instead of aligned text")
	flag.Parse()
	os.Exit(run(*only, *md))
}

func run(only string, md bool) int {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	failures := 0
	for _, t := range experiments.All() {
		if len(want) > 0 && !want[t.ID] {
			continue
		}
		if md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Render())
		}
		if !t.Passed() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: %d experiment(s) failed\n", failures)
		return 1
	}
	return 0
}
