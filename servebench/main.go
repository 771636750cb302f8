// Command servebench is the repository's serving benchmark. It stands up
// a leader, a follower and a gateway on loopback HTTP inside one
// process, drives one workload at them from at most two client
// goroutines, checks every response against an in-process reference,
// and prints one JSON result line.
//
// Usage (from the repository root, through the build script):
//
//	bash servebench/run.sh --workload csv-direct --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// load once more to sample counters, then replays a fixed sample of the
// workload's requests one at a time through nested entry points and
// reports the per-layer metrics. See README.md for the workloads and
// the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: csv-direct, json-direct or gateway-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds (split between the closed- and open-loop phases)")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer replay")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for server state, span files and result records")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}

	res, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printSummary(res)
	line, err := json.Marshal(res.result)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}

// printSummary writes the human-readable report to stderr: every metric
// by name with its unit, the failure share, and the first mismatches.
func printSummary(r *runResult) {
	fmt.Fprintf(os.Stderr, "servebench %s seed=%d trace=%v: attempted=%d failed=%d ops_failed_frac=%.6f correct=%v\n",
		r.cfg.workload, r.cfg.seed, r.cfg.trace, r.Attempted, r.Failed, r.failedFrac(), r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for i, msg := range r.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... %d more failures\n", len(r.failures)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", msg)
	}
}
