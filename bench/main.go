// Command bpbench is the repository's one benchmark: it starts the
// whole serving stack in this process over loopback TCP, drives one
// session through it over HTTP, checks every reply, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer ones) named in
// BENCHMARK.json. See README.md.
//
// Usage:
//
//	bpbench --workload local_json --seed 1 --seconds 20 --trace 0
//	bpbench --check A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed for the generated input frames")
	seconds := flag.Float64("seconds", 20, "measured seconds, split evenly between the saturate and paced phases")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with every wrapper off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "also append this run's result to a JSON-lines file, for --check")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its Chrome trace_event JSON")
	check := flag.Bool("check", false, "compare two result files: bpbench --check A.jsonl B.jsonl")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition --check takes its bounds from")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatal("--check needs two result files")
		}
		regressed, err := checkFiles(*benchmark, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	wl, err := workloadByName(*name)
	if err != nil {
		fatal("%v (have %s)", err, strings.Join(names, ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal("--seconds must be at least 1 and --trace 0 or 1")
	}
	res, err := runWorkload(runConfig{
		wl:       wl,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		warmup:   500,
		setups:   3,
		events:   probeEvents,
		isolate:  isolatedBudget,
		slices:   gatedSlices,
		traceDir: *traceDir,
		log:      os.Stderr,
	})
	if err != nil {
		fatal("%s: %v", wl.name, err)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: wl.name, Seed: *seed, Trace: *trace, Detail: res.detail, result: *res}); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bpbench: "+format+"\n", args...)
	os.Exit(2)
}
